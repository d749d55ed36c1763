//! The reproduction harness: one generator per table and figure of the
//! paper's evaluation, all driven by a single [`ReproContext`].
//!
//! Each generator returns a markdown fragment containing the paper's
//! anchor numbers next to the values measured on the synthetic ecosystem,
//! so `repro all` regenerates the complete `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! ```
//! use idnre_bench::ReproContext;
//! use idnre_datagen::EcosystemConfig;
//!
//! let ctx = ReproContext::build(&EcosystemConfig {
//!     scale: 5000,
//!     attack_scale: 50,
//!     ..EcosystemConfig::default()
//! });
//! let table = idnre_bench::reports::table2(&ctx);
//! assert!(table.contains("Chinese"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod epochs;
pub mod mine;
pub mod passes;
pub mod pipeline_bench;
pub mod reports;
pub mod robust;
pub mod slo;

pub use cli::{validate_flags, CliFlags, FLAG_CONFLICTS, FLAG_REQUIRES};
pub use epochs::{run_epochs, EpochBenchStats, EpochRun, DEFAULT_CHURN_PER_MILLE};
pub use mine::{MiningOutputs, Portfolio, PortfolioMember};
pub use pipeline_bench::{
    render_bench_json, render_bench_text, run_pipeline_bench, run_pipeline_bench_sharded,
    run_pipeline_sweep, run_pipeline_sweep_sharded, EpochSummary, LedgerRow, PipelineBench,
    RunLedger,
};
pub use robust::{FaultSetup, IngestStats, RunHealth, SurveyStats};
pub use slo::{slo_profile, SLO_PROFILES};

use idnre_analyze::{RecordSource, SliceSource, StreamSource};
use idnre_arena::CorpusColumns;
use idnre_core::{HomographDetector, HomographFinding, SemanticDetector, SemanticFinding};
use idnre_datagen::{Ecosystem, EcosystemConfig};
use idnre_fault::{ErrorBudget, FaultPlan};
use idnre_telemetry::{NoopRecorder, Recorder, SpanCtx};
use idnre_whois::CrawlStats;
use std::sync::Arc;

/// Default shard size of the fused corpus traversal (and of `--stream`).
pub const DEFAULT_SHARD_SIZE: usize = 1024;

/// Shared state for all report generators: the generated ecosystem plus the
/// one fused analysis scan over it.
pub struct ReproContext {
    /// The synthetic ecosystem (registration vectors are empty when built
    /// with [`ReproContext::build_streamed`]; the artifacts are complete
    /// either way).
    pub eco: Ecosystem,
    /// Homograph-detector findings over the registered IDN corpus.
    pub homographs: Vec<HomographFinding>,
    /// Type-1 semantic findings over the registered IDN corpus.
    pub semantic: Vec<SemanticFinding>,
    /// Every corpus-derived aggregate the report generators read, folded by
    /// the one fused [`idnre_analyze::ShardedScan`] traversal.
    pub outputs: passes::ScanOutputs,
    /// Telemetry sink every pipeline stage and report generator records
    /// into ([`NoopRecorder`] unless built with
    /// [`ReproContext::build_recorded`]).
    pub recorder: Arc<dyn Recorder>,
    /// Fault accounting of the run, present only when built under a fault
    /// schedule ([`ReproContext::build_faulted`], [`Build::faults`]). Its verdict becomes the process
    /// exit code, and [`ReproContext::full_report`] appends its section.
    pub health: Option<RunHealth>,
    /// Zone-wide confusable portfolios, present only when built with
    /// [`ReproContext::build_mined`] / [`ReproContext::build_streamed_mined`]
    /// (`--mine-portfolios`). [`ReproContext::full_report`] appends its
    /// section.
    pub mining: Option<MiningOutputs>,
}

impl std::fmt::Debug for ReproContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReproContext")
            .field("eco", &self.eco)
            .field("homographs", &self.homographs)
            .field("semantic", &self.semantic)
            .field("recorder_enabled", &self.recorder.enabled())
            .finish()
    }
}

/// How a [`ReproContext`] is built. Each field is one `repro` mode, and
/// every combination runs through the one body of
/// [`ReproContext::build_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Build {
    /// `--stream --shard-size N`: regenerate the corpus `N` records at a
    /// time instead of materializing it. `None` builds the registration
    /// vectors and scans them at [`DEFAULT_SHARD_SIZE`].
    pub shard_size: Option<usize>,
    /// `--mine-portfolios`: fold the skeleton-LSH bucket index on the
    /// scan and mine confusable portfolios from it.
    pub mine: bool,
    /// `--faults` (with `--crawl-sched` in its `sched`): run the WHOIS
    /// survey, zone ingest and crawl survey under this fault schedule.
    pub faults: Option<FaultSetup>,
}

impl ReproContext {
    /// Generates the ecosystem and runs both detectors.
    pub fn build(config: &EcosystemConfig) -> Self {
        Self::build_recorded(config, Arc::new(NoopRecorder))
    }

    /// [`ReproContext::build`] with every pipeline stage (generation, the
    /// fused analysis scan and the surveys folded onto it) reported to
    /// `recorder`. The built context — and therefore every report — is
    /// byte-identical regardless of the recorder.
    pub fn build_recorded(config: &EcosystemConfig, recorder: Arc<dyn Recorder>) -> Self {
        Self::build_with(config, &Build::default(), recorder)
    }

    /// [`ReproContext::build_recorded`] with the two-pass skeleton-LSH
    /// portfolio miner enabled (`--mine-portfolios`): pass A folds the
    /// bucket index on the fused scan, pass B verifies and clusters the
    /// non-singleton buckets, and the context carries [`MiningOutputs`].
    /// The default report sections are byte-identical to an unmined build.
    pub fn build_mined(config: &EcosystemConfig, recorder: Arc<dyn Recorder>) -> Self {
        let build = Build {
            mine: true,
            ..Build::default()
        };
        Self::build_with(config, &build, recorder)
    }

    /// [`ReproContext::build_recorded`] without ever materializing the full
    /// registration corpus: the streaming [`idnre_datagen::KeyedCorpus`]
    /// regenerates each shard on demand, and the artifact walk (which also
    /// builds the corpus columns) and the fused scan (which carries both
    /// surveys) walk it `shard_size` records at a time: two walks of each
    /// population. The corpus's residency peak lands in the
    /// `datagen.peak_resident_records` gauge and its walks in the
    /// `datagen.records.regenerated` counter. The report is byte-identical
    /// to the batch build at the same config, for every `shard_size` and
    /// thread count.
    pub fn build_streamed(
        config: &EcosystemConfig,
        shard_size: usize,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let build = Build {
            shard_size: Some(shard_size),
            ..Build::default()
        };
        Self::build_with(config, &build, recorder)
    }

    /// [`ReproContext::build_streamed`] with the portfolio miner enabled:
    /// the bucket index folds over the regenerated shards (packed symbol
    /// handles only — never a second copy of the corpus), so mining
    /// composes with bounded-memory streaming at any scale.
    pub fn build_streamed_mined(
        config: &EcosystemConfig,
        shard_size: usize,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let build = Build {
            shard_size: Some(shard_size),
            mine: true,
            ..Build::default()
        };
        Self::build_with(config, &build, recorder)
    }

    /// [`ReproContext::build_recorded`] under a fault schedule: generation
    /// and the detector scans run as usual, but the WHOIS survey on the
    /// scan sees corrupted transfers, the zone corpus is round-tripped
    /// through lenient ingest with seeded corruption (its coverage is
    /// accounted, not fed forward), and the crawl survey runs the full
    /// retry/backoff schedule against injected faults after the scan
    /// instead of riding it. The damage is tallied in an [`ErrorBudget`]
    /// and the context carries a [`RunHealth`] whose status is the run's
    /// exit-code verdict. A [`Build`] with a `shard_size` streams the same
    /// run, with the same report bytes.
    pub fn build_faulted(
        config: &EcosystemConfig,
        setup: &FaultSetup,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let build = Build {
            faults: Some(*setup),
            ..Build::default()
        };
        Self::build_with(config, &build, recorder)
    }

    /// The one builder body every other builder calls: generation (and the
    /// corpus columns) under a `build.ecosystem` span, the fused scan over
    /// the materialized or streamed corpus, then — under a fault schedule
    /// — [`robust::faulted_stages`] over the same source. A streamed build
    /// records its residency peak and regenerated-record count last, so
    /// both cover every walk of the build.
    pub fn build_with(
        config: &EcosystemConfig,
        build: &Build,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let mut span = recorder.span_at("build.ecosystem", SpanCtx::ROOT, 0);
        let (eco, corpus, columns) =
            idnre_datagen::generate_with_columns(config, build.shard_size, &*recorder, span.ctx());
        span.add_records(corpus.idn_len() + corpus.non_idn_len());
        drop(span);

        let (batch, streamed);
        let (source, shard_size): (&dyn RecordSource, usize) = match build.shard_size {
            Some(shard_size) => {
                streamed = StreamSource::new(&corpus);
                (&streamed, shard_size)
            }
            None => {
                batch = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
                (&batch, DEFAULT_SHARD_SIZE)
            }
        };
        let budget = build
            .faults
            .map(|setup| ErrorBudget::new(setup.plan.profile().budget_per_mille));
        let faults = build.faults.as_ref().zip(budget.as_ref());
        let scanned = run_scan(
            &eco,
            &columns,
            source,
            shard_size,
            config.threads,
            build.mine,
            faults.map(|(setup, budget)| (&setup.plan, budget)),
            &*recorder,
            SpanCtx::ROOT,
        );
        let health = faults.map(|(setup, budget)| {
            robust::faulted_stages(
                &eco.zones,
                source,
                shard_size,
                setup,
                scanned.whois,
                budget,
                &*recorder,
                SpanCtx::ROOT,
            )
        });
        if build.shard_size.is_some() {
            recorder.gauge_max(idnre_datagen::PEAK_RESIDENT_RECORDS, corpus.gauge().peak());
            recorder.add(idnre_datagen::REGENERATED_RECORDS, corpus.regenerated());
        }
        ReproContext {
            eco,
            homographs: scanned.homographs,
            semantic: scanned.semantic,
            outputs: scanned.outputs,
            recorder,
            health,
            mining: scanned.mining,
        }
    }

    /// The full `EXPERIMENTS.md` document.
    ///
    /// The report generators are independent pure functions of the built
    /// context, so they run on the work-queue executor and are stitched
    /// together in [`reports::ALL`] order — the document is byte-identical
    /// to a serial run for every thread count. Stage and counter names
    /// the generators record are pre-registered up front so the metrics
    /// snapshot order is scheduling-independent.
    pub fn full_report(&self) -> String {
        let scale = self.eco.config.scale;
        let attack_scale = self.eco.config.attack_scale;
        let mut out = String::new();
        out.push_str(&format!(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Regenerated by `cargo run -p idnre-bench --release --bin repro -- all`.\n\n\
             Ecosystem scale 1:{scale} (attack populations 1:{attack_scale}), seed \
             {:#x}. \"Paper\" numbers are the published values; \"measured\" numbers \
             come from the synthetic ecosystem, so absolute counts scale down by \
             the denominator while *shapes* (rates, rankings, crossovers) are the \
             reproduction target.\n\n\
             Paper-scale invocation: `repro --stream --shard-size 1024 --scale 2750 \
             all` (the denominator the paper's 154M-SLD census maps to) runs in \
             bounded memory — peak resident records stay ≤ 4 × shard_size × \
             threads at any scale, including the full 1:1 corpus. \
             `repro --bench --stream` records the measured peak as \
             `peak_resident_records` in `BENCH_pipeline.json`.\n\n",
            self.eco.config.seed
        ));
        let enabled = self.recorder.enabled();
        if enabled {
            for (name, _) in reports::ALL {
                self.recorder.add_records(&format!("report.{name}"), 0);
            }
        }
        let fragments = idnre_par::par_map(
            reports::ALL,
            self.eco.config.threads,
            |(name, generator)| {
                let mut span = if enabled {
                    self.recorder
                        .span_at(&format!("report.{name}"), SpanCtx::ROOT, 0)
                } else {
                    idnre_telemetry::Span::disabled()
                };
                let fragment = generator(self);
                span.add_records(fragment.len() as u64);
                fragment
            },
        );
        for fragment in fragments {
            out.push_str(&fragment);
            out.push('\n');
        }
        if let Some(mining) = &self.mining {
            out.push_str(&mine::render_mining(mining));
            out.push('\n');
        }
        if let Some(health) = &self.health {
            out.push_str(&health.render());
            out.push('\n');
        }
        out
    }
}

/// What [`run_scan`] hands back to a builder.
struct Scanned {
    homographs: Vec<HomographFinding>,
    semantic: Vec<SemanticFinding>,
    outputs: passes::ScanOutputs,
    mining: Option<MiningOutputs>,
    whois: CrawlStats,
}

/// Builds both detectors and the full report-aggregator roster plus the
/// surveys over the generator's `columns`, then runs the one fused
/// traversal every corpus-derived number comes from. Without `faults` the
/// scan carries the crawl and the WHOIS survey; under a fault plan it
/// carries only the WHOIS survey, whose damage the budget tallies, and
/// the faulted crawl survey runs after the scan. With `mine` set, the
/// skeleton-LSH bucket index folds on the same traversal (pass A) and the
/// pair miner (pass B) runs over its non-singleton buckets afterwards,
/// under the same parent span.
#[allow(clippy::too_many_arguments)]
fn run_scan(
    eco: &Ecosystem,
    columns: &CorpusColumns,
    source: &dyn RecordSource,
    shard_size: usize,
    threads: usize,
    mine: bool,
    faults: Option<(&FaultPlan, &ErrorBudget)>,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> Scanned {
    let brand_domains: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brand_domains, 0.95);
    let semantic_detector = SemanticDetector::new(&brand_domains);
    let mining_plan = mine.then(|| mine::MiningPlan::new(columns, threads));
    let mut plan = match &mining_plan {
        Some(mining_plan) => passes::ScanPlan::new_mined(
            &detector,
            &semantic_detector,
            columns,
            &eco.pdns,
            passes::table3_domains(&eco.whois_summary),
            passes::fig6_candidates(eco.brands.top(30)),
            threads,
            mining_plan,
        ),
        None => passes::ScanPlan::new(
            &detector,
            &semantic_detector,
            columns,
            &eco.pdns,
            passes::table3_domains(&eco.whois_summary),
            passes::fig6_candidates(eco.brands.top(30)),
            threads,
        ),
    };
    if faults.is_none() {
        plan = plan.with_crawl_survey();
    }
    let (fault_plan, budget) = faults.unzip();
    let whois = passes::WhoisPass::new(&eco.whois, fault_plan, budget);
    let run = plan
        .with_whois_survey(whois)
        .run_at(source, shard_size, threads, recorder, parent);
    let whois = run.whois.expect("the WHOIS survey is registered");
    robust::record_whois_coverage(&whois, recorder);
    let mining = match (run.bucket_index, &mining_plan) {
        (Some(index), Some(mining_plan)) => Some(mine::mine_portfolios(
            &index,
            columns,
            mining_plan,
            eco,
            threads,
            recorder,
            parent,
        )),
        _ => None,
    };
    Scanned {
        homographs: run.homographs,
        semantic: run.semantic,
        outputs: run.outputs,
        mining,
        whois,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ReproContext {
        ReproContext::build(&EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        })
    }

    #[test]
    fn context_detects_injected_attacks() {
        let ctx = small();
        // The detector must recover a healthy share of the injected
        // homograph population (Identical/High-fidelity spoofs clear 0.95;
        // Medium ones legitimately fall below).
        let injected = ctx.eco.homograph_attacks.len();
        assert!(injected > 20, "too few injected: {injected}");
        let recovered = ctx.homographs.len();
        assert!(
            recovered * 2 >= injected,
            "recovered {recovered} of {injected}"
        );
        // Semantic detector recovers essentially all Type-1 injections.
        let injected_sem = ctx.eco.semantic_attacks.len();
        let recovered_sem = ctx.semantic.len();
        assert!(
            recovered_sem * 10 >= injected_sem * 9,
            "recovered {recovered_sem} of {injected_sem}"
        );
    }

    #[test]
    fn every_report_generates() {
        let ctx = small();
        for (name, generator) in reports::ALL {
            let text = generator(&ctx);
            assert!(text.contains("Paper"), "{name} lacks a paper anchor");
            assert!(text.len() > 100, "{name} suspiciously short");
        }
    }

    #[test]
    fn telemetry_never_perturbs_the_report() {
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        };
        let plain = ReproContext::build(&config).full_report();

        let registry = Arc::new(idnre_telemetry::Registry::new());
        let recorded = ReproContext::build_recorded(&config, registry.clone()).full_report();
        assert_eq!(plain, recorded, "telemetry must not perturb report bytes");

        let snapshot = registry.snapshot();
        let stage_names: Vec<&str> = snapshot.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(
            stage_names.len() >= 8,
            "expected >= 8 stages, got {stage_names:?}"
        );
        for stage in &snapshot.stages {
            assert!(stage.calls > 0, "{} never called", stage.name);
        }
        for name in idnre_crawler::OUTCOME_COUNTERS {
            assert!(
                snapshot.counters.iter().any(|c| c.name == name),
                "missing pre-registered counter {name}"
            );
        }
        let json = snapshot.render_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{}\"", idnre_telemetry::SCHEMA)));
    }

    #[test]
    fn full_report_assembles() {
        let ctx = small();
        let report = ctx.full_report();
        for heading in ["Table I ", "Table XIV", "Figure 7", "Figure 8"] {
            assert!(report.contains(heading), "missing {heading}");
        }
    }
}
