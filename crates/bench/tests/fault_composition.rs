//! Fault injection composes with the streamed build: under the same fault
//! schedule, synchronous or scheduled, a streamed faulted build produces
//! the batch faulted build's report bytes and deterministic metrics, walks
//! its corpus a fixed number of times and keeps the streamed residency
//! bound.

use idnre_bench::{Build, FaultSetup, ReproContext, DEFAULT_SHARD_SIZE};
use idnre_datagen::{EcosystemConfig, PEAK_RESIDENT_RECORDS, REGENERATED_RECORDS};
use idnre_fault::FaultPlan;
use idnre_sched::SchedConfig;
use idnre_telemetry::Registry;
use std::sync::Arc;

/// The storm-smoke scale: the scheduler's storm run lands degraded here.
fn config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        threads,
        ..EcosystemConfig::default()
    }
}

/// `flaky:1` through the synchronous crawl survey and `storm` through the
/// scheduler, on `threads` workers.
fn setups(threads: usize) -> [FaultSetup; 2] {
    let plan = |spec| FaultPlan::from_spec(spec).expect("valid fault spec");
    let flaky = FaultSetup {
        threads,
        ..FaultSetup::from_plan(plan("flaky:1"))
    };
    let storm = FaultSetup {
        threads,
        ..FaultSetup::from_plan(plan("storm"))
    }
    .with_sched(SchedConfig::default());
    [flaky, storm]
}

/// Shards of a `shard_size` grid over both populations.
fn shards(idn: u64, non_idn: u64, shard_size: usize) -> u64 {
    idn.div_ceil(shard_size as u64) + non_idn.div_ceil(shard_size as u64)
}

#[test]
fn streamed_faulted_build_equals_the_batch_build() {
    for (index, batch_setup) in setups(1).into_iter().enumerate() {
        let registry = Arc::new(Registry::new());
        let batch = ReproContext::build_faulted(&config(1), &batch_setup, registry.clone());
        let batch_report = batch.full_report();
        let batch_snapshot = registry.snapshot();
        let (idn, non_idn) = (batch.outputs.idn_len, batch.outputs.non_idn_len);
        assert!(batch_report.contains("## Run health"));

        for threads in [1usize, 4] {
            for shard_size in [64usize, 1024] {
                let at = format!("setup {index}, threads {threads}, shard size {shard_size}");
                let registry = Arc::new(Registry::new());
                let build = Build {
                    shard_size: Some(shard_size),
                    faults: Some(setups(threads)[index]),
                    ..Build::default()
                };
                let streamed = ReproContext::build_with(&config(threads), &build, registry.clone());
                assert_eq!(streamed.full_report(), batch_report, "report bytes, {at}");
                assert_eq!(streamed.health, batch.health, "{at}");

                // Four walks of each population: the artifact walk (which
                // builds the columns), the fused scan, the crawl survey's
                // host table and its slices.
                assert_eq!(
                    registry.counter_value(REGENERATED_RECORDS),
                    4 * (idn + non_idn),
                    "{at}"
                );
                let peak = registry.gauge_peak(PEAK_RESIDENT_RECORDS);
                assert!(peak > 0, "{at}");
                assert!(
                    peak <= (4 * shard_size * threads) as u64,
                    "peak residency {peak} exceeds 4 × shard size × threads, {at}"
                );

                // The deterministic metrics equal the batch run's once the
                // streamed-only counter is dropped. The fused scan times
                // every pass once per shard, so a pass's calls differ from
                // the batch run's by exactly the difference of the shard
                // grids (the batch build scans at the default shard size).
                let mut snapshot = registry.snapshot();
                snapshot.counters.retain(|c| c.name != REGENERATED_RECORDS);
                let extra_shards = shards(idn, non_idn, shard_size) as i64
                    - shards(idn, non_idn, DEFAULT_SHARD_SIZE) as i64;
                for (stage, batch_stage) in snapshot.stages.iter_mut().zip(&batch_snapshot.stages) {
                    if stage.name.starts_with("analyze.pass.") {
                        assert_eq!(
                            stage.calls as i64 - batch_stage.calls as i64,
                            extra_shards,
                            "{} calls, {at}",
                            stage.name
                        );
                        stage.calls = batch_stage.calls;
                    }
                }
                assert_eq!(
                    snapshot.render_deterministic_json(),
                    batch_snapshot.render_deterministic_json(),
                    "deterministic metrics, {at}"
                );
            }
        }
    }
}
