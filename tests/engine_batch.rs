//! Integration tests of the `nocsyn-engine` batch job API against the
//! real paper workloads: outcomes in job order, per-job isolation of
//! failures and deadlines, and full-lifecycle telemetry.

use std::sync::Arc;

use nocsyn::engine::{CollectSink, Engine, EngineEvent, Job, JobError, JobStatus, RetryPolicy};
use nocsyn::model::PhaseSchedule;
use nocsyn::synth::{AppPattern, SynthesisConfig, SynthesisRequest, SynthesisRequestBuilder};
use nocsyn::workloads::{Benchmark, WorkloadParams};

fn benchmark_builder(benchmark: Benchmark, n: usize, restarts: usize) -> SynthesisRequestBuilder {
    let sched = benchmark
        .schedule(
            n,
            &WorkloadParams::paper_default(benchmark).with_iterations(1),
        )
        .expect("paper process counts are valid");
    SynthesisRequest::builder(AppPattern::from_schedule(&sched))
        .config(SynthesisConfig::new().with_seed(0xBA7C ^ (benchmark as u64)))
        .restarts(restarts)
}

fn benchmark_job(benchmark: Benchmark, n: usize, restarts: usize) -> Job {
    Job::new(
        format!("{}{n}", benchmark.name()),
        benchmark_builder(benchmark, n, restarts)
            .build()
            .expect("a nonzero restart count builds"),
    )
}

/// A multi-benchmark batch: every outcome comes back in job order,
/// completed, and equal to what a one-worker engine selects for the same
/// job on its own.
#[test]
fn batch_across_benchmarks_matches_sequential_per_job() {
    let jobs: Vec<Job> = [Benchmark::Cg, Benchmark::Mg, Benchmark::Fft]
        .into_iter()
        .map(|b| benchmark_job(b, 8, 4))
        .collect();
    let expected: Vec<_> = jobs
        .iter()
        .map(|j| {
            let outcome = Engine::new().with_workers(1).synthesize(j.request.clone());
            outcome.result.expect("completed job has result")
        })
        .collect();

    let outcomes = Engine::new().with_workers(4).run(jobs);
    assert_eq!(outcomes.len(), 3);
    let names: Vec<&str> = outcomes.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(names, ["CG8", "MG8", "FFT8"]);
    for (outcome, sequential) in outcomes.iter().zip(&expected) {
        assert_eq!(outcome.status, JobStatus::Completed, "{}", outcome.name);
        assert_eq!(outcome.attempts_completed, 4, "{}", outcome.name);
        let result = outcome.result.as_ref().expect("completed job has result");
        assert_eq!(result.report, sequential.report, "{}", outcome.name);
        assert_eq!(result.routes, sequential.routes, "{}", outcome.name);
    }
}

/// One poisoned job (empty pattern) and one zero-deadline job do not
/// disturb a healthy neighbor in the same batch.
#[test]
fn failures_and_deadlines_stay_contained_per_job() {
    let empty = AppPattern::from_schedule(&PhaseSchedule::new(0));
    let jobs = vec![
        Job::new(
            "empty",
            SynthesisRequest::builder(empty)
                .restarts(2)
                .build()
                .expect("builds"),
        ),
        Job::new(
            "CG8",
            benchmark_builder(Benchmark::Cg, 8, 2)
                .deadline_ms(0)
                .build()
                .expect("builds"),
        ),
        benchmark_job(Benchmark::Mg, 8, 2),
    ];
    let outcomes = Engine::new().with_workers(2).run(jobs);

    assert!(matches!(outcomes[0].status, JobStatus::Failed(_)));
    assert!(outcomes[0].result.is_none());

    assert_eq!(outcomes[1].status, JobStatus::DeadlineExceeded);
    assert!(outcomes[1].result.is_none());
    assert_eq!(outcomes[1].attempts_completed, 0);

    assert_eq!(outcomes[2].status, JobStatus::Completed);
    assert!(outcomes[2].result.is_some());
    assert_eq!(outcomes[2].attempts_completed, 2);
}

/// A panic injected into one attempt of one job fails that job alone —
/// its siblings complete with results bit-identical to a panic-free run
/// of the same batch.
#[test]
fn injected_panic_is_isolated_and_siblings_are_bit_identical() {
    let build_jobs = |poison: bool| {
        let mut jobs = vec![
            benchmark_job(Benchmark::Cg, 8, 3),
            benchmark_job(Benchmark::Mg, 8, 3),
            benchmark_job(Benchmark::Fft, 8, 3),
        ];
        if poison {
            jobs[1] = benchmark_job(Benchmark::Mg, 8, 3).with_injected_panic(1);
        }
        jobs
    };
    let clean = Engine::new().with_workers(4).run(build_jobs(false));
    let sink = Arc::new(CollectSink::new());
    let poisoned = Engine::new()
        .with_workers(4)
        .with_sink(sink.clone())
        .run(build_jobs(true));

    // The poisoned job fails with the structured panic payload...
    match &poisoned[1].status {
        JobStatus::Failed(JobError::Panicked { message }) => {
            assert!(message.contains("injected panic"), "{message}");
        }
        other => panic!("expected a panicked failure, got {other:?}"),
    }
    assert!(poisoned[1].result.is_none());

    // ...and each sibling's result is bit-identical to the clean batch.
    for i in [0usize, 2] {
        assert_eq!(poisoned[i].status, JobStatus::Completed, "job {i}");
        let (a, b) = (
            clean[i].result.as_ref().expect("clean job completed"),
            poisoned[i].result.as_ref().expect("sibling completed"),
        );
        assert_eq!(a.report, b.report, "job {i}");
        assert_eq!(a.routes, b.routes, "job {i}");
        assert_eq!(a.placement, b.placement, "job {i}");
    }

    // The panic surfaced as exactly one structured event on the MG job.
    let events = sink.events();
    let panics: Vec<&EngineEvent> = events
        .iter()
        .filter(|e| e.kind() == "attempt_panicked")
        .collect();
    assert_eq!(panics.len(), 1);
    assert_eq!(panics[0].job(), "MG8");
}

/// A retry policy turns the same injected panic into a completed job:
/// the attempt re-runs with a deterministically reseeded search.
#[test]
fn retry_policy_recovers_an_injected_panic() {
    let job = benchmark_job(Benchmark::Cg, 8, 3)
        .with_injected_panic(0)
        .with_retry(RetryPolicy::retries(2));
    let outcome = Engine::new()
        .with_workers(2)
        .run(vec![job])
        .pop()
        .expect("one outcome");
    assert_eq!(outcome.status, JobStatus::Completed);
    assert_eq!(outcome.attempts_completed, 3);
    assert!(outcome.result.is_some());
}

/// Telemetry over a batch: per job exactly one started and one finished
/// event, one restart event per completed attempt, and a deadline event
/// only for the job that expired.
#[test]
fn batch_telemetry_is_complete_and_attributed() {
    let sink = Arc::new(CollectSink::new());
    let jobs = vec![
        benchmark_job(Benchmark::Cg, 8, 3),
        Job::new(
            "MG8",
            benchmark_builder(Benchmark::Mg, 8, 3)
                .deadline_ms(0)
                .build()
                .expect("builds"),
        ),
    ];
    let outcomes = Engine::new()
        .with_workers(2)
        .with_sink(sink.clone())
        .run(jobs);
    assert_eq!(outcomes[0].status, JobStatus::Completed);
    assert_eq!(outcomes[1].status, JobStatus::DeadlineExceeded);

    let events = sink.events();
    let count = |job: &str, kind: &str| {
        events
            .iter()
            .filter(|e| e.job() == job && e.kind() == kind)
            .count()
    };
    assert_eq!(count("CG8", "job_started"), 1);
    assert_eq!(count("CG8", "restart_completed"), 3);
    assert_eq!(count("CG8", "job_finished"), 1);
    assert_eq!(count("CG8", "deadline_exceeded"), 0);

    assert_eq!(count("MG8", "job_started"), 1);
    assert_eq!(count("MG8", "restart_completed"), 0);
    assert_eq!(count("MG8", "deadline_exceeded"), 1);
    assert_eq!(count("MG8", "job_finished"), 1);

    // The finished event for the expired job reports the degraded status
    // and a null result in its JSON rendering.
    let finished_mg = events
        .iter()
        .find(|e| e.job() == "MG8" && e.kind() == "job_finished")
        .expect("mg8 finished event exists");
    match finished_mg {
        EngineEvent::JobFinished { status, links, .. } => {
            assert_eq!(status, "deadline_exceeded");
            assert!(links.is_none());
        }
        other => panic!("unexpected event {other:?}"),
    }
    let json = finished_mg.to_json().to_string();
    assert!(json.contains(r#""status":"deadline_exceeded""#), "{json}");
    assert!(json.contains(r#""links":null"#), "{json}");
}
