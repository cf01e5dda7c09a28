//! Golden pins for certificate bytes and binding digests.
//!
//! The rendered certificate and its `binding` digest are a contract: the
//! serve cache stores them, `nocsyn certify` hashes them, and a
//! certificate written by one build must validate under the next. These
//! pins record the SHA-256 of the rendered bytes and the binding hex for
//! the fixed-seed golden workloads (CG16, MG8, FFT16) and for the
//! decomposed `examples_data/clus64.txt` run at seed 65, so any change to
//! rendering, field order or the binding shows up here first.

use nocsyn::certify::{check_certificate, CheckOptions};
use nocsyn::cli;
use nocsyn::engine::Engine;
use nocsyn::model::{format_schedule, sha256, Certificate, ParseLimits, ParseOptions};
use nocsyn::serve::{job_fingerprint, parse_pattern};
use nocsyn::synth::{AppPattern, SynthesisRequest};
use nocsyn::workloads::{Benchmark, WorkloadParams};

/// `(name, sha256(rendered certificate), binding hex)`.
type Pin = (&'static str, &'static str, &'static str);

const GOLDEN: [Pin; 3] = [
    (
        "CG16",
        "5e9029f1432a44883ea33be57fce62838e9cd0682c548a6ec2c36563fd3c0735",
        "8d3302c24dd213e7c3ad394280258051f8f2aa7c9de75aecfff34f84e1393ad0",
    ),
    (
        "MG8",
        "3c5670cb5a0f442ce86267621a0674a0323ed26918e81a70848276eaf5bfed14",
        "566643f0833c77289bb7d8330ebb04078ee67b7a3c211c41bdbebb004ebe636c",
    ),
    (
        "FFT16",
        "c3c8e7431e0f12fc61cc425ddad06588b57d32e6ac004dbaac399c9315ac2d7e",
        "5ceb271f2872d8b097d96de665d6597a5d0a86a1d9b9f88749008840d6ff7440",
    ),
];

const CLUS64: Pin = (
    "clus64",
    "9349fa99d58d3b4dff075ddbe49d378d3cd0322959a1a4160f66c6eadc22cb7c",
    "35d7cbfca2c65ac0f64dc8410828f25d7a5beeb0635179133ee6202e02f1efbe",
);

fn golden_certificate(benchmark: Benchmark, n: usize) -> (Certificate, String) {
    let params = WorkloadParams::paper_default(benchmark).with_iterations(1);
    let schedule = benchmark
        .schedule(n, &params)
        .expect("golden size is valid");
    let pattern = AppPattern::from_schedule(&schedule);
    let request = SynthesisRequest::builder(pattern.clone())
        .seed(0x51)
        .restarts(2)
        .build()
        .expect("request builds");
    let result = Engine::new()
        .synthesize(request)
        .result
        .expect("synthesis succeeds");
    (
        result.certificate(&pattern, None),
        format_schedule(&schedule),
    )
}

/// Checks `rendered` against `pin` and returns its parse.
fn assert_pinned(pin: &Pin, rendered: &str) -> Certificate {
    let (name, want_sha, want_binding) = pin;
    let cert = Certificate::parse(rendered, &ParseLimits::default()).expect("parses");
    let got_sha = sha256(rendered.as_bytes()).to_hex();
    let binding = cert.binding.map(|d| d.to_hex()).unwrap_or_default();
    assert_eq!(
        (got_sha.as_str(), binding.as_str()),
        (*want_sha, *want_binding),
        "{name}: certificate bytes or binding moved"
    );
    cert
}

#[test]
fn golden_workload_certificates_are_pinned() {
    let workloads = [
        (Benchmark::Cg, 16),
        (Benchmark::Mg, 8),
        (Benchmark::Fft, 16),
    ];
    for (pin, (benchmark, n)) in GOLDEN.iter().zip(workloads) {
        let (cert, text) = golden_certificate(benchmark, n);
        let rendered = cert.to_json();
        let parsed = assert_pinned(pin, &rendered);
        let summary = check_certificate(&text, &rendered, None, &CheckOptions::new())
            .expect("golden certificate validates");
        assert_eq!(summary.binding, pin.2);
        assert_eq!(parsed.to_json(), rendered);
    }
}

/// Runs `nocsyn synth clus64.txt --decompose --restarts 2 --seed 65
/// --emit-cert` and returns the emitted file (job-bound, trailing
/// newline included).
fn clus64_certificate_text() -> String {
    let path = std::env::temp_dir().join(format!(
        "nocsyn-golden-clus64-{}.cert.json",
        std::process::id()
    ));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();
    let args: Vec<String> = [
        "synth",
        concat!(env!("CARGO_MANIFEST_DIR"), "/examples_data/clus64.txt"),
        "--decompose",
        "--restarts",
        "2",
        "--seed",
        "65",
        "--emit-cert",
        &path_str,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    cli::run(&args).expect("decomposed synth succeeds");
    let text = std::fs::read_to_string(&path).expect("certificate written");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn decomposed_clus64_certificate_is_pinned_and_a_fixed_point() {
    let text = clus64_certificate_text();
    let rendered = text.strip_suffix('\n').expect("emitted with a newline");
    let cert = assert_pinned(&CLUS64, rendered);
    assert_eq!(
        cert.to_json(),
        rendered,
        "parse -> render must reproduce the emitted bytes"
    );
    let pattern = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples_data/clus64.txt"
    ))
    .expect("example pattern");
    let summary = check_certificate(&pattern, rendered, None, &CheckOptions::new())
        .expect("decomposed certificate validates");
    assert!(summary.contention_free);
    assert_eq!(summary.binding, CLUS64.2);
}

/// `job_fingerprint` of `examples_data/pipeline.txt` as a flat request:
/// with default knobs, and with `restarts 2 seed 9` (the ci.sh certify
/// command). The restart count reaches the key through the request's
/// canonical form. Then the keys a serve request `{"op":"synth",
/// "pattern":<text>,"seed":1}` gets for the CG16, MG8 and FFT16 schedules
/// rendered as pattern text, computed without synthesizing.
#[test]
fn flat_pipeline_job_fingerprints_are_pinned() {
    let key = |text: &str, seed: Option<u64>, restarts: Option<usize>| {
        let parsed = parse_pattern(text, &ParseOptions::new()).expect("parses");
        let mut builder = SynthesisRequest::builder(parsed.pattern.clone());
        if let Some(seed) = seed {
            builder = builder.seed(seed);
        }
        if let Some(restarts) = restarts {
            builder = builder.restarts(restarts);
        }
        let request = builder.build().expect("builds");
        job_fingerprint(parsed.kind, &parsed.canonical, &request).to_hex()
    };
    let pipeline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples_data/pipeline.txt"
    ))
    .expect("example pattern");
    assert_eq!(
        key(&pipeline, None, None),
        "6bc1563642ec95713e006ad38f184910267ac129070c5ff9943b027d06dc725b"
    );
    assert_eq!(
        key(&pipeline, Some(9), Some(2)),
        "857aba71ebf851bc28a847dcaad5cf102cb20423849839d0a26af98fc338ee3f"
    );
    let served = [
        (
            Benchmark::Cg,
            16,
            "0bf128e08df05f8b405c0f62dce990b577d4a9ca9f617c0b6e45c6756a618eec",
        ),
        (
            Benchmark::Mg,
            8,
            "a2ec051954a2f048ab5750c8befde27118d6c279a980a827d64e3b9519ca5307",
        ),
        (
            Benchmark::Fft,
            16,
            "f2fda1ad85fab64d0fba60c2bd03d5485c5bd05f4cb2a6c93a336e7fc466cf69",
        ),
    ];
    for (benchmark, n, want) in served {
        let schedule = benchmark
            .schedule(
                n,
                &WorkloadParams::paper_default(benchmark).with_iterations(1),
            )
            .expect("paper sizes are valid");
        assert_eq!(
            key(&format_schedule(&schedule), Some(1), None),
            want,
            "{}{n}",
            benchmark.name()
        );
    }
}
