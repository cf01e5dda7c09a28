//! Golden pins for certificate bytes and binding digests.
//!
//! The rendered certificate and its `binding` digest are a contract: the
//! serve cache stores them, `nocsyn certify` re-derives them, and a
//! certificate written by one build must validate under the next. These
//! pins record the SHA-256 of the rendered bytes and the binding hex for
//! the fixed-seed golden workloads (CG16, MG8, FFT16) and for the
//! decomposed `examples_data/clus64.txt` run at seed 65, so any change to
//! rendering, normalization or the binding framing shows up here first.

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
        "2bc6f1baafe54b7ec9828022d63ef4c00d112701113a3ca7360b57a13665f52c",
        "c4fd6c0c0d7c4238124fde4462818ac55c69df443bb6ee9674de02f8ff704813",
    ),
    (
        "MG8",
        "457557fd4c67b8bca48a74ea1f991bc7d36e1515c7607bea6a989be16d5402c3",
        "c042f506bebd7e2ad008333ebcde6a65cdefe42fda40d9d63e79c34591834fae",
    ),
    (
        "FFT16",
        "d920ebe0a323e2a91a540b9f5830508efb87288d0b887a5e433e76a3d4916aa7",
        "8b83a0652e4930b6f239fd9b62c391eb9c420114668c4d2d36f16c04ee7b5779",
    ),
];

const CLUS64: Pin = (
    "clus64",
    "874ea64381d0f520fd4a557a97827abf74e514bad14aee1c9ac042fb5678850d",
    "3ac1d0e6628748c14ba1dc535ad5b6cf76f61dbc85eb617621c5c798c0df4806",
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

fn assert_pinned(pin: &Pin, rendered: &str, binding: &str) {
    let (name, want_sha, want_binding) = pin;
    let got_sha = sha256(rendered.as_bytes()).to_hex();
    assert_eq!(
        (got_sha.as_str(), binding),
        (*want_sha, *want_binding),
        "{name}: certificate bytes or binding moved"
    );
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
        assert_pinned(pin, &rendered, &cert.binding().to_hex());
        let summary = check_certificate(&text, &rendered, None, &CheckOptions::new())
            .expect("golden certificate validates");
        assert_eq!(summary.binding, cert.binding().to_hex());
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
    let cert = Certificate::parse(rendered, &ParseLimits::default()).expect("parses");
    assert!(cert.verify_binding());
    assert_pinned(&CLUS64, rendered, &cert.binding().to_hex());
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
    assert_eq!(Some(summary.binding), cert.claimed_binding);
}

/// `job_fingerprint` of `examples_data/pipeline.txt` as a flat request:
/// with default knobs, and with `restarts 2 seed 9` (the ci.sh certify
/// command). The restart count reaches the key through the request's
/// canonical form.
#[test]
fn flat_pipeline_job_fingerprints_are_pinned() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples_data/pipeline.txt"
    ))
    .expect("example pattern");
    let parsed = parse_pattern(&text, &ParseOptions::new()).expect("parses");
    let key = |request: SynthesisRequest| {
        job_fingerprint(parsed.kind, &parsed.canonical, &request).to_hex()
    };
    let default = SynthesisRequest::builder(parsed.pattern.clone())
        .build()
        .expect("builds");
    assert_eq!(
        key(default),
        "6bc1563642ec95713e006ad38f184910267ac129070c5ff9943b027d06dc725b"
    );
    let tuned = SynthesisRequest::builder(parsed.pattern.clone())
        .restarts(2)
        .seed(9)
        .build()
        .expect("builds");
    assert_eq!(
        key(tuned),
        "857aba71ebf851bc28a847dcaad5cf102cb20423849839d0a26af98fc338ee3f"
    );
}
