//! End-to-end checks of the fuzzing subsystem: clean runs over the
//! built-in parse targets, byte-identical summaries across same-seed
//! runs, and — via a synthetic crashing target — crash dedup plus
//! first-try `NOCSYN_FUZZ_SEED` replay.

use nocsyn_fuzz::{gen, run, CaseBudget, CaseReport, FuzzConfig, FuzzTarget, Registry, REPLAY_ENV};

fn config(iters: u64, seed: u64) -> FuzzConfig {
    FuzzConfig {
        iters,
        seed,
        budget: CaseBudget::default(),
        replay: None,
    }
}

#[test]
fn builtin_targets_survive_two_thousand_cases() {
    let registry = Registry::with_builtin_targets();
    let summary = run(&registry, "all", &[], &config(2000, 1)).expect("known target");
    assert!(
        summary.clean(),
        "expected a clean run, got:\n{}",
        summary.render_human()
    );
    // The generators must exercise both sides of the boundary: some
    // inputs parse, some are rejected through typed error paths. The
    // chaos shadow-model probe has no reject path by design (every byte
    // string decodes to a valid op script), so the rejection check
    // applies to the other targets only.
    for t in &summary.targets {
        assert_eq!(t.cases, 2000);
        assert!(t.accepted > 0, "{}: nothing parsed", t.name);
        if t.name == "chaos_plan" {
            assert!(
                t.rejections.is_empty(),
                "{}: unexpected reject path",
                t.name
            );
        } else {
            assert!(!t.rejections.is_empty(), "{}: nothing rejected", t.name);
        }
    }
}

/// Every target mutates its own corpus: an entry added to one target's
/// corpus leaves every other target's summary byte-identical.
#[test]
fn a_corpus_entry_moves_only_its_own_target() {
    let before = run(
        &Registry::with_builtin_targets(),
        "all",
        &[],
        &config(500, 1),
    )
    .expect("known target");
    let mut registry = Registry::with_builtin_targets();
    let original = nocsyn_fuzz::serve_probe::serve_request_target();
    let mut corpus = original.corpus().to_vec();
    corpus.push(
        br#"{"op":"synth","pattern":"procs 3
phase
 0 -> 2
","seed":3}"#
            .to_vec(),
    );
    registry.register(FuzzTarget::new("serve_request", corpus, move |input| {
        original.run(input)
    }));
    let after = run(&registry, "all", &[], &config(500, 1)).expect("known target");
    assert_eq!(before.targets.len(), after.targets.len());
    for (b, a) in before.targets.iter().zip(&after.targets) {
        if a.name == "serve_request" {
            assert_ne!(a, b, "the new entry should change serve_request's cases");
        } else {
            assert_eq!(a, b, "{} moved with another target's corpus", a.name);
        }
    }
}

#[test]
fn same_seed_gives_byte_identical_json() {
    let registry = Registry::with_builtin_targets();
    let a = run(&registry, "all", &[], &config(500, 7)).expect("known target");
    let b = run(&registry, "all", &[], &config(500, 7)).expect("known target");
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());

    let c = run(&registry, "all", &[], &config(500, 8)).expect("known target");
    assert_ne!(
        a.to_json().to_string(),
        c.to_json().to_string(),
        "different seeds should explore different inputs"
    );
}

/// A target that panics whenever the input length is a multiple of 7
/// (deterministic in the input, message varies with the length so the
/// fingerprint normalizer has something to collapse).
fn synthetic_crashy_target() -> FuzzTarget {
    FuzzTarget::new("crashy", gen::default_corpus(), |input| {
        if !input.is_empty() && input.len() % 7 == 0 {
            panic!("synthetic crash at len {}", input.len());
        }
        CaseReport::accepted(input.len() as u64, 0)
    })
}

#[test]
fn synthetic_crashes_deduplicate_and_replay_first_try() {
    let mut registry = Registry::new();
    registry.register(synthetic_crashy_target());

    let summary = run(&registry, "crashy", &[], &config(300, 3)).expect("known target");
    let target = &summary.targets[0];
    // Lengths 7, 14, 21, ... all hit, but the value-free fingerprint
    // collapses them into a single crash record.
    assert_eq!(target.crashes.len(), 1, "{}", summary.render_human());
    let crash = &target.crashes[0];
    assert_eq!(crash.fingerprint, "synthetic crash at len #");
    assert!(
        crash.count > 1,
        "expected repeated hits, got {}",
        crash.count
    );
    assert!(crash
        .replay_line("crashy")
        .starts_with(&format!("NOCSYN_FUZZ_SEED={} ", crash.first_seed)));

    // Replaying the recorded seed reproduces the crash on the very
    // first (and only) case.
    let replay = FuzzConfig {
        replay: Some(crash.first_seed),
        ..config(300, 3)
    };
    let replayed = run(&registry, "crashy", &[], &replay).expect("known target");
    let rt = &replayed.targets[0];
    assert_eq!(rt.cases, 1);
    assert_eq!(rt.crashes.len(), 1);
    assert_eq!(rt.crashes[0].message, crash.message);
    assert_eq!(rt.crashes[0].first_seed, crash.first_seed);
}

#[test]
fn replay_env_variable_is_honored() {
    // This test owns NOCSYN_FUZZ_SEED for the whole test binary; no
    // other test here reads it.
    std::env::set_var(REPLAY_ENV, "12345");
    let cfg = config(1000, 1).from_env();
    std::env::remove_var(REPLAY_ENV);
    assert_eq!(cfg.replay, Some(12345));

    let mut registry = Registry::new();
    registry.register(synthetic_crashy_target());
    let summary = run(&registry, "crashy", &[], &cfg).expect("known target");
    assert_eq!(summary.targets[0].cases, 1, "replay runs exactly one case");
}

#[test]
fn budget_violations_are_recorded_not_fatal() {
    let mut registry = Registry::new();
    registry.register(FuzzTarget::new(
        "amplifier",
        gen::default_corpus(),
        |input| {
            // Claims absurd work/output; the runner must flag it but keep
            // going and report every case.
            CaseReport::accepted(u64::MAX, 100_000_000 + input.len() as u64)
        },
    ));
    let summary = run(&registry, "amplifier", &[], &config(50, 2)).expect("known target");
    let target = &summary.targets[0];
    assert_eq!(target.cases, 50);
    assert!(!summary.clean());
    assert_eq!(target.violations.len(), 2, "{}", summary.render_human());
    let whats: Vec<&str> = target.violations.iter().map(|v| v.what).collect();
    assert!(whats.contains(&"ticks"));
    assert!(whats.contains(&"output_units"));
    assert_eq!(target.violations[0].count, 50);
    let json = summary.to_json().to_string();
    assert!(json.contains("\"unique_budget_violations\":2"), "{json}");
}

#[test]
fn generated_inputs_respect_the_input_budget() {
    let mut registry = Registry::new();
    registry.register(FuzzTarget::new(
        "measurer",
        gen::default_corpus(),
        |input| {
            assert!(input.len() <= 128, "input budget breached: {}", input.len());
            CaseReport::accepted(input.len() as u64, 0)
        },
    ));
    let cfg = FuzzConfig {
        budget: CaseBudget {
            max_input_bytes: 128,
            ..CaseBudget::default()
        },
        ..config(500, 11)
    };
    let summary = run(&registry, "measurer", &[], &cfg).expect("known target");
    assert!(summary.clean(), "{}", summary.render_human());
}
