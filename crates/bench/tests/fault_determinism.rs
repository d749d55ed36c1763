//! Properties of the fault-and-recovery layer: a fixed fault spec replays
//! byte-identically across runs *and* across worker-thread counts, and a
//! corrupted corpus still completes in lenient mode with the damage
//! accounted instead of aborting.

use idnre_analyze::SliceSource;
use idnre_bench::robust::{self, FaultSetup, RunHealth};
use idnre_bench::{ReproContext, DEFAULT_SHARD_SIZE};
use idnre_datagen::{Ecosystem, EcosystemConfig};
use idnre_fault::{ErrorBudget, FaultPlan, FaultProfile, RetryPolicy};
use idnre_telemetry::{Registry, SpanCtx};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One small ecosystem shared across cases: generation dominates the cost
/// and is independent of the fault layer under test.
fn eco() -> &'static Ecosystem {
    static ECO: OnceLock<Ecosystem> = OnceLock::new();
    ECO.get_or_init(|| {
        Ecosystem::generate(&EcosystemConfig {
            scale: 8000,
            attack_scale: 100,
            brand_count: 50,
            ..EcosystemConfig::default()
        })
    })
}

fn profile(index: u8) -> FaultProfile {
    match index % 4 {
        0 => FaultProfile::none(),
        1 => FaultProfile::smoke(),
        2 => FaultProfile::flaky(),
        _ => FaultProfile::storm(),
    }
}

/// Runs the whole faulted pipeline (WHOIS survey, then the build's fault
/// stages: lenient zone ingest → retried crawl survey) and returns
/// everything observable: the health verdict and the deterministic slice
/// of the telemetry snapshot.
fn faulted_run(seed: u64, profile_index: u8, threads: usize) -> (RunHealth, String) {
    let eco = eco();
    let setup = FaultSetup {
        plan: FaultPlan::new(seed, profile(profile_index)),
        policy: RetryPolicy::default(),
        threads,
        sched: None,
    };
    let registry = Registry::new();
    let budget = ErrorBudget::new(setup.plan.profile().budget_per_mille);
    let whois_stats = robust::whois_survey(eco, Some(&setup.plan), Some(&budget), &registry);
    let health = robust::faulted_stages(
        &eco.zones,
        &SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations),
        DEFAULT_SHARD_SIZE,
        &setup,
        whois_stats,
        &budget,
        &registry,
        SpanCtx::NONE,
    );
    let metrics = registry.snapshot().render_deterministic_json();
    (health, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same fault seed and policy replay byte-identically, run to run.
    #[test]
    fn schedules_replay_across_runs(seed in any::<u64>(), profile_index in 0u8..4) {
        let (health_a, metrics_a) = faulted_run(seed, profile_index, 4);
        let (health_b, metrics_b) = faulted_run(seed, profile_index, 4);
        prop_assert_eq!(health_a, health_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }

    /// Thread count changes wall time only, never a counter or a verdict.
    #[test]
    fn schedules_replay_across_thread_counts(
        seed in any::<u64>(),
        profile_index in 0u8..4,
        threads in 2usize..9,
    ) {
        let (health_single, metrics_single) = faulted_run(seed, profile_index, 1);
        let (health_multi, metrics_multi) = faulted_run(seed, profile_index, threads);
        prop_assert_eq!(health_single, health_multi);
        prop_assert_eq!(metrics_single, metrics_multi);
    }
}

/// A storm-corrupted corpus completes in lenient mode: records are lost
/// and accounted, but the pipeline produces a full report rather than
/// aborting on the first bad line.
#[test]
fn corrupt_corpus_completes_leniently() {
    let (health, _) = faulted_run(0xBAD_C0DE, 3, 4);
    assert!(health.zones.skipped > 0, "storm corrupted no zone lines");
    assert!(
        health.zones.attempted > health.zones.skipped,
        "lenient ingest salvaged nothing"
    );
    assert!(health.whois.parse_failures > 0);
    assert!(
        health.survey.domains > 0,
        "survey did not run to completion"
    );
    assert!(health.errors > 0);
    assert_eq!(health.status, idnre_fault::RunStatus::BudgetExceeded);
}

/// The full context path: two `build_faulted` runs with the same spec
/// produce byte-identical `EXPERIMENTS.md` documents, Run health section
/// included.
#[test]
fn full_reports_replay_byte_identically() {
    let config = EcosystemConfig {
        scale: 8000,
        attack_scale: 100,
        brand_count: 50,
        ..EcosystemConfig::default()
    };
    let setup = FaultSetup::from_plan(FaultPlan::from_spec("smoke").unwrap());
    let report = |threads| {
        let setup = FaultSetup { threads, ..setup };
        ReproContext::build_faulted(
            &config,
            &setup,
            std::sync::Arc::new(idnre_telemetry::NoopRecorder),
        )
        .full_report()
    };
    let first = report(4);
    assert_eq!(first, report(4), "same spec, same bytes");
    assert_eq!(first, report(1), "thread count leaked into the report");
    assert!(first.contains("## Run health"));
    assert!(first.contains("**degraded**"));
}
