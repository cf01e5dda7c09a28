//! Cache-correctness properties of the serve daemon: the fingerprint is
//! injective on the corpus of distinct jobs, invariant under
//! presentation (field order, comments, whitespace), and a cached report
//! is byte-identical to what a fresh synthesis — served or direct —
//! would produce.

use nocsyn_check::{check_assert, check_assert_eq, check_n, u64_in, usize_in};

use nocsyn::engine::Engine;
use nocsyn::model::{CanonicalForm, ParseOptions};
use nocsyn::serve::{
    job_fingerprint, parse_pattern, synth_json_object, CacheTier, ReplyKind, ResultCache,
    ServeOptions, Server,
};
use nocsyn::synth::{AppPattern, SynthesisConfig, SynthesisRequest};
use nocsyn::workloads::{random_permutation_schedule, WorkloadParams};

/// Wraps a config in a flat request, the shape `job_fingerprint` keys on.
fn request_for(
    pattern: &AppPattern,
    config: &SynthesisConfig,
    restarts: usize,
) -> SynthesisRequest {
    SynthesisRequest::builder(pattern.clone())
        .config(config.clone())
        .restarts(restarts)
        .build()
        .expect("a flat request with non-zero restarts builds")
}

fn synth_request(text: &str, seed: u64) -> String {
    nocsyn::model::json::JsonValue::object([
        ("op", nocsyn::model::json::JsonValue::from("synth")),
        ("pattern", nocsyn::model::json::JsonValue::from(text)),
        ("seed", nocsyn::model::json::JsonValue::from(seed)),
        ("restarts", nocsyn::model::json::JsonValue::from(1u64)),
    ])
    .to_string()
}

fn pattern_text(n_procs: usize, n_phases: usize, seed: u64) -> String {
    nocsyn::model::format_schedule(&random_permutation_schedule(
        n_procs,
        n_phases,
        seed,
        &WorkloadParams::default().with_bytes(64),
    ))
}

/// Distinct (pattern, config, seed) triples get distinct fingerprints.
#[test]
fn fingerprint_is_injective_on_distinct_jobs() {
    let opts = ParseOptions::new();
    let mut seen: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    // A corpus that varies each fingerprint ingredient one at a time.
    let default = SynthesisRequest::DEFAULT_RESTARTS;
    let mut jobs: Vec<(String, SynthesisConfig, usize)> = Vec::new();
    for pat_seed in 0..4 {
        jobs.push((
            pattern_text(6, 2, pat_seed),
            SynthesisConfig::new(),
            default,
        ));
    }
    for seed in [1, 2, 3] {
        jobs.push((
            pattern_text(6, 2, 0),
            SynthesisConfig::new().with_seed(seed),
            default,
        ));
    }
    for degree in [3, 4, 6] {
        jobs.push((
            pattern_text(6, 2, 0),
            SynthesisConfig::new().with_max_degree(degree),
            default,
        ));
    }
    for restarts in [1, 2] {
        jobs.push((pattern_text(6, 2, 0), SynthesisConfig::new(), restarts));
    }
    for (text, config, restarts) in &jobs {
        let parsed = parse_pattern(text, &opts).expect("generated patterns are valid");
        let request = request_for(&parsed.pattern, config, *restarts);
        let fp = job_fingerprint(parsed.kind, &parsed.canonical, &request).to_hex();
        let description = format!("{text} + {:?}", request.canonical_form().render());
        if let Some(previous) = seen.insert(fp, description.clone()) {
            panic!("fingerprint collision between jobs:\n{previous}\n{description}");
        }
    }
    assert_eq!(seen.len(), jobs.len());
}

/// The canonical form digests identically however its fields are
/// (re)ordered — the property that makes the fingerprint independent of
/// config-field presentation order.
#[test]
fn canonical_form_is_permutation_stable() {
    check_n(
        "canonical_form_is_permutation_stable",
        48,
        (u64_in(0..u64::MAX), usize_in(2..9)),
        |&(seed, n_fields)| {
            let fields: Vec<(String, String)> = (0..n_fields)
                .map(|i| {
                    (
                        format!("k{i}"),
                        format!("v{}", seed.rotate_left(i as u32) % 1000),
                    )
                })
                .collect();
            let mut forward = CanonicalForm::new();
            let mut reversed = CanonicalForm::new();
            let mut interleaved = CanonicalForm::new();
            for f in &fields {
                forward.push_field(&f.0, &f.1);
            }
            for f in fields.iter().rev() {
                reversed.push_field(&f.0, &f.1);
            }
            for f in fields.iter().skip(1).chain(fields.iter().take(1)) {
                interleaved.push_field(&f.0, &f.1);
            }
            check_assert_eq!(forward.digest(), reversed.digest());
            check_assert_eq!(forward.digest(), interleaved.digest());
            Ok(())
        },
    );
}

/// Equivalent pattern presentations (comments, blank lines, spacing)
/// produce the same fingerprint; genuinely different patterns don't.
#[test]
fn fingerprint_is_invariant_under_pattern_presentation() {
    let opts = ParseOptions::new();
    let config = SynthesisConfig::new();
    let fp = |text: &str| {
        let parsed = parse_pattern(text, &opts).expect("valid pattern");
        let request = request_for(&parsed.pattern, &config, SynthesisRequest::DEFAULT_RESTARTS);
        job_fingerprint(parsed.kind, &parsed.canonical, &request)
    };
    let plain = "procs 4\nphase\n  0 -> 1\n  2 -> 3\n";
    let noisy = "# comment\nprocs 4\n\nphase\n  0->1\n  2 ->   3\n";
    let other = "procs 4\nphase\n  0 -> 1\n  3 -> 2\n";
    assert_eq!(fp(plain), fp(noisy));
    assert_ne!(fp(plain), fp(other));
}

/// The disk tier is untrusted: an entry whose companion certificate is
/// corrupted (or deleted) is never served — the daemon counts a
/// `cert_errors`, re-synthesizes, and rewrites the entry.
#[test]
fn disk_entries_with_bad_certificates_are_recertified_not_served() {
    let dir = std::env::temp_dir().join("nocsyn-serve-cache-cert-test");
    let _ = std::fs::remove_dir_all(&dir);
    let text = pattern_text(6, 2, 77);
    let request = nocsyn::model::json::JsonValue::object([
        ("op", nocsyn::model::json::JsonValue::from("synth")),
        (
            "pattern",
            nocsyn::model::json::JsonValue::from(text.as_str()),
        ),
        ("seed", nocsyn::model::json::JsonValue::from(77u64)),
        ("restarts", nocsyn::model::json::JsonValue::from(1u64)),
    ])
    .to_string();
    let with_dir = || {
        Server::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
    };

    // Populate the disk store, and record the fingerprint + reply bytes.
    let first = with_dir().handle_line(&request);
    assert!(matches!(first.kind, ReplyKind::Report(CacheTier::Miss)));
    let parsed = parse_pattern(&text, &ParseOptions::new()).expect("valid pattern");
    let config = SynthesisConfig::new().with_seed(77);
    let fp = job_fingerprint(
        parsed.kind,
        &parsed.canonical,
        &request_for(&parsed.pattern, &config, 1),
    )
    .to_hex();
    let cert_path = dir.join(format!("{fp}.cert.json"));
    assert!(cert_path.exists(), "a certificate rides along on disk");

    // A fresh daemon trusts the disk entry only because the certificate
    // validates.
    let disk = with_dir().handle_line(&request);
    assert!(
        matches!(disk.kind, ReplyKind::Report(CacheTier::Disk)),
        "{}",
        disk.line
    );

    // Corrupt the certificate with well-formed JSON that is *not* a
    // contention-freedom certificate: the startup scan keeps the pair
    // (both files parse), so this exercises the semantic validator —
    // the entry must be re-synthesized, never served from disk, and the
    // stats must count the bad certificate. (Structurally torn files
    // are the startup scan's job; see the truncation tests below.)
    std::fs::write(&cert_path, "{\"not\":\"a certificate\"}").expect("test dir writable");
    let server = with_dir();
    let recert = server.handle_line(&request);
    assert!(
        matches!(recert.kind, ReplyKind::Report(CacheTier::Miss)),
        "a bad certificate must force re-synthesis, got {}",
        recert.line
    );
    assert_eq!(
        recert
            .line
            .replace("\"cache\":\"miss\"", "\"cache\":\"disk\""),
        disk.line,
        "re-synthesis reproduces the same bytes"
    );
    let stats = server.handle_line(r#"{"op":"stats"}"#);
    assert!(matches!(stats.kind, ReplyKind::Stats));
    assert!(stats.line.contains("\"cert_errors\":1"), "{}", stats.line);

    // The re-synthesis rewrote a valid certificate. Deleting it leaves
    // an orphan report, which the next daemon's startup scan quarantines
    // — the job is re-synthesized from scratch, not served uncertified.
    let healed = with_dir().handle_line(&request);
    assert!(matches!(healed.kind, ReplyKind::Report(CacheTier::Disk)));
    std::fs::remove_file(&cert_path).expect("test dir writable");
    let server = with_dir();
    let missing = server.handle_line(&request);
    assert!(matches!(missing.kind, ReplyKind::Report(CacheTier::Miss)));
    assert!(
        server
            .handle_line(r#"{"op":"stats"}"#)
            .line
            .contains("\"quarantined\":1"),
        "orphan reports are quarantined at startup"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk tier is a cache, not an archive: a certificate in the
/// previous schema is refused like any other bad certificate. The stored
/// certificate of `examples_data/pipeline.txt` (restarts 2, seed 9) is
/// replaced by that job's own `nocsyn-cert-v1` certificate; the next
/// daemon counts a `cert_errors`, re-synthesizes, and commits the
/// current schema — the same bytes `synth --emit-cert` writes for the
/// job.
#[test]
fn stored_v1_certificates_are_refused_and_replaced() {
    let dir =
        std::env::temp_dir().join(format!("nocsyn-serve-cache-v1-cert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let text = include_str!("../examples_data/pipeline.txt");
    let request = nocsyn::model::json::JsonValue::object([
        ("op", nocsyn::model::json::JsonValue::from("synth")),
        ("pattern", nocsyn::model::json::JsonValue::from(text)),
        ("seed", nocsyn::model::json::JsonValue::from(9u64)),
        ("restarts", nocsyn::model::json::JsonValue::from(2u64)),
    ])
    .to_string();
    let with_dir = || {
        Server::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
    };
    let first = with_dir().handle_line(&request);
    assert!(matches!(first.kind, ReplyKind::Report(CacheTier::Miss)));
    let v1 = include_str!("../examples_data/pipeline.v1.cert.json");
    let fp = "857aba71ebf851bc28a847dcaad5cf102cb20423849839d0a26af98fc338ee3f";
    assert!(v1.contains(fp), "the v1 certificate is this job's");
    let cert_path = dir.join(format!("{fp}.cert.json"));
    let v2 = std::fs::read_to_string(&cert_path).expect("a certificate rides along on disk");
    std::fs::write(&cert_path, v1).expect("test dir writable");

    let server = with_dir();
    let reply = server.handle_line(&request);
    assert!(
        matches!(reply.kind, ReplyKind::Report(CacheTier::Miss)),
        "a v1 certificate must force re-synthesis, got {}",
        reply.line
    );
    assert_eq!(
        reply.line, first.line,
        "re-synthesis reproduces the same bytes"
    );
    let stats = server.handle_line(r#"{"op":"stats"}"#);
    assert!(stats.line.contains("\"cert_errors\":1"), "{}", stats.line);
    let rewritten = std::fs::read_to_string(&cert_path).expect("re-committed");
    assert!(rewritten.starts_with("{\"schema\":\"nocsyn-cert-v2\""));
    assert_eq!(rewritten, v2);
    assert_eq!(
        format!("{rewritten}\n"),
        include_str!("../crates/model/testdata/flat.cert.json"),
        "serve and `synth --emit-cert` write the same certificate"
    );
    let disk = with_dir().handle_line(&request);
    assert!(matches!(disk.kind, ReplyKind::Report(CacheTier::Disk)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report or certificate file truncated at *any* byte is structurally
/// torn — the strict JSON parser never accepts a proper prefix of a
/// complete object — so the startup scan must quarantine it, plus its
/// now-orphaned companion, at every single truncation point.
#[test]
fn every_byte_truncation_is_quarantined_by_the_startup_scan() {
    let dir = std::env::temp_dir().join(format!(
        "nocsyn-serve-cache-truncate-scan-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let text = pattern_text(4, 1, 11);
    let request = synth_request(&text, 11);
    let first = Server::new(ServeOptions {
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })
    .handle_line(&request);
    assert!(matches!(first.kind, ReplyKind::Report(CacheTier::Miss)));

    let parsed = parse_pattern(&text, &ParseOptions::new()).expect("valid pattern");
    let config = SynthesisConfig::new().with_seed(11);
    let fp = job_fingerprint(
        parsed.kind,
        &parsed.canonical,
        &request_for(&parsed.pattern, &config, 1),
    )
    .to_hex();
    let report_path = dir.join(format!("{fp}.json"));
    let cert_path = dir.join(format!("{fp}.cert.json"));
    let report = std::fs::read(&report_path).expect("report on disk");
    let cert = std::fs::read(&cert_path).expect("certificate on disk");

    let scan = |torn: &std::path::Path, bytes: &[u8], k: usize| {
        std::fs::write(torn, &bytes[..k]).expect("test dir writable");
        let mut cache = ResultCache::new(4).with_dir(dir.clone());
        cache.recover();
        let stats = cache.stats();
        assert!(
            stats.quarantined == 2 && stats.recovered == 0,
            "truncation at byte {k} of {torn:?}: expected the torn file and \
             its orphaned companion quarantined, got {stats:?}"
        );
        assert!(!report_path.exists(), "byte {k}: report left behind");
        assert!(!cert_path.exists(), "byte {k}: certificate left behind");
        // Restore the intact pair for the next truncation point.
        std::fs::write(&report_path, &report).expect("test dir writable");
        std::fs::write(&cert_path, &cert).expect("test dir writable");
    };
    for k in 0..report.len() {
        scan(&report_path, &report, k);
    }
    for k in 0..cert.len() {
        scan(&cert_path, &cert, k);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn disk files through the full daemon path: a seeded truncation of
/// either file is quarantined at startup, the job re-synthesizes to the
/// same bytes, and the healed disk pair is byte-identical to the
/// original. Failures replay with `NOCSYN_CHECK_SEED`.
#[test]
fn truncated_disk_entries_heal_byte_identically() {
    let dir = std::env::temp_dir().join(format!(
        "nocsyn-serve-cache-truncate-heal-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let text = pattern_text(5, 2, 23);
    let request = synth_request(&text, 23);
    let with_dir = || {
        Server::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
    };
    let first = with_dir().handle_line(&request);
    assert!(matches!(first.kind, ReplyKind::Report(CacheTier::Miss)));
    let disk_line = {
        let served = with_dir().handle_line(&request);
        assert!(matches!(served.kind, ReplyKind::Report(CacheTier::Disk)));
        served.line
    };
    let parsed = parse_pattern(&text, &ParseOptions::new()).expect("valid pattern");
    let config = SynthesisConfig::new().with_seed(23);
    let fp = job_fingerprint(
        parsed.kind,
        &parsed.canonical,
        &request_for(&parsed.pattern, &config, 1),
    )
    .to_hex();
    let report_path = dir.join(format!("{fp}.json"));
    let cert_path = dir.join(format!("{fp}.cert.json"));
    let report = std::fs::read(&report_path).expect("report on disk");
    let cert = std::fs::read(&cert_path).expect("certificate on disk");

    check_n(
        "truncated_disk_entries_heal_byte_identically",
        8,
        (usize_in(0..2), u64_in(0..10_000)),
        |&(which, frac)| {
            let (path, bytes) = if which == 0 {
                (&report_path, &report)
            } else {
                (&cert_path, &cert)
            };
            let k = (frac as usize).saturating_mul(bytes.len() - 1) / 9_999;
            std::fs::write(path, &bytes[..k]).expect("test dir writable");
            // Startup quarantines the torn file and its orphaned
            // companion; the request re-synthesizes to the same bytes.
            let server = with_dir();
            let healed = server.handle_line(&request);
            check_assert!(matches!(healed.kind, ReplyKind::Report(CacheTier::Miss)));
            check_assert_eq!(
                healed
                    .line
                    .replace("\"cache\":\"miss\"", "\"cache\":\"disk\""),
                disk_line
            );
            check_assert!(server
                .handle_line(r#"{"op":"stats"}"#)
                .line
                .contains("\"quarantined\":2"));
            // The re-synthesis rewrote both files: a fresh daemon serves
            // the healed entry from disk, byte-identical all the way down.
            let again = with_dir().handle_line(&request);
            check_assert!(matches!(again.kind, ReplyKind::Report(CacheTier::Disk)));
            check_assert_eq!(again.line, disk_line);
            check_assert_eq!(std::fs::read(&report_path).expect("healed report"), report);
            check_assert_eq!(std::fs::read(&cert_path).expect("healed certificate"), cert);
            Ok(())
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served cache hit is byte-identical (modulo the cache marker) to the
/// miss that populated it, and its embedded report is byte-identical to
/// a direct engine run rendered through the same `synth_json_object`.
#[test]
fn cached_report_matches_fresh_synthesis_bytes() {
    check_n(
        "cached_report_matches_fresh_synthesis_bytes",
        6,
        (usize_in(4..8), u64_in(0..50)),
        |&(n_procs, seed)| {
            let text = pattern_text(n_procs, 2, seed);
            let server = Server::new(ServeOptions::default());
            let request = nocsyn::model::json::JsonValue::object([
                ("op", nocsyn::model::json::JsonValue::from("synth")),
                (
                    "pattern",
                    nocsyn::model::json::JsonValue::from(text.as_str()),
                ),
                ("seed", nocsyn::model::json::JsonValue::from(seed)),
                ("restarts", nocsyn::model::json::JsonValue::from(2u64)),
            ])
            .to_string();
            let miss = server.handle_line(&request);
            let hit = server.handle_line(&request);
            check_assert!(matches!(miss.kind, ReplyKind::Report(CacheTier::Miss)));
            check_assert!(matches!(hit.kind, ReplyKind::Report(CacheTier::Hit)));
            check_assert_eq!(
                miss.line.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
                hit.line
            );

            // Direct run through the same engine API and renderer.
            let parsed =
                parse_pattern(&text, &ParseOptions::new()).expect("generated patterns are valid");
            let config = SynthesisConfig::new().with_seed(seed);
            let request = request_for(&parsed.pattern, &config, 2);
            let outcome = Engine::new().synthesize(request.clone());
            let direct = synth_json_object(&request, &outcome);
            let embedded = hit
                .line
                .split("\"report\":")
                .nth(1)
                .and_then(|s| s.strip_suffix('}'))
                .expect("reply embeds the report object last");
            check_assert_eq!(embedded, direct.as_str());
            Ok(())
        },
    );
}
