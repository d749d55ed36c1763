//! One benchmark run of the IDN reexamination pipeline, timed from
//! outside through the public API.
//!
//! `run.py` starts this binary once per run, so that each run's peak RSS
//! is its own process's `VmHWM`:
//!
//! ```text
//! perfbench reference --workload W --seed S --report PATH
//! perfbench run       --workload W --seed S --report PATH [--trace PATH]
//! perfbench inputs    --seed S
//! ```
//!
//! `reference` writes the oracle report the workload's runs are checked
//! against. `run` performs one timed run, writes its report and prints
//! one JSON line of measurements; with `--trace` the same calls run under
//! a tracing registry, the Chrome trace is written to PATH, and the line
//! also carries the per-layer metrics and the ledger. `inputs` prints a
//! fingerprint of the generated ecosystem, so a seed change is visible.
//! `--scale` (default 10) exists for the runner's self-checks.

use idnre_analyze::{DeltaStream, EpochSource, EpochState};
use idnre_bench::epochs::grow_columns;
use idnre_bench::passes::{self, ScanPlan};
use idnre_bench::{
    run_epochs, FaultSetup, ReproContext, RunHealth, DEFAULT_CHURN_PER_MILLE, DEFAULT_SHARD_SIZE,
};
use idnre_core::{HomographDetector, SemanticDetector, SkeletonCache};
use idnre_crawler::OUTCOME_COUNTERS;
use idnre_datagen::{
    dataset_fingerprint, render_dataset, DaySimulator, Ecosystem, EcosystemConfig, EpochCorpus,
};
use idnre_fault::FaultPlan;
use idnre_sched::SchedConfig;
use idnre_telemetry::{
    MetricsSnapshot, NoopRecorder, Recorder, Registry, SpanCtx, TraceNode, TraceSnapshot,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every workload, pinned so that results do not depend
/// on the machine's available parallelism.
const THREADS: usize = 2;
/// Scale denominator of every workload: 270,514 records.
const DEFAULT_SCALE: u64 = 10;
/// Warm epochs per zone-diff run.
const EPOCHS: u64 = 10;

#[derive(Clone, Copy)]
enum Workload {
    CensusStream,
    CensusBatchMined,
    ZoneDiff,
    FaultedCrawl,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "census-stream" => Some(Workload::CensusStream),
            "census-batch-mined" => Some(Workload::CensusBatchMined),
            "zone-diff" => Some(Workload::ZoneDiff),
            "faulted-crawl" => Some(Workload::FaultedCrawl),
            _ => None,
        }
    }
}

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    scale: u64,
    report: Option<String>,
    trace: Option<String>,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench reference|run|inputs --workload NAME --seed N \
         [--scale N] [--report PATH] [--trace PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| usage("missing command"));
    let mut args = Args {
        command,
        workload: None,
        seed: EcosystemConfig::default().seed,
        scale: DEFAULT_SCALE,
        report: None,
        trace: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--scale" => args.scale = value.parse().unwrap_or_else(|_| usage("bad --scale")),
            "--report" => args.report = Some(value),
            "--trace" => args.trace = Some(value),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    args
}

fn config(seed: u64, scale: u64, threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        seed,
        scale,
        threads,
        ..EcosystemConfig::default()
    }
}

/// The `flaky` fault profile replayed from the workload seed, with the
/// crawl survey routed through the default scheduler (`--crawl-sched`).
fn fault_setup(seed: u64, threads: usize) -> FaultSetup {
    let plan = FaultPlan::from_spec(&format!("flaky:{seed}")).expect("flaky:SEED is a valid spec");
    FaultSetup {
        threads,
        ..FaultSetup::from_plan(plan)
    }
    .with_sched(SchedConfig::default())
}

/// What one run produced, plus the runner's own timings around the public
/// calls it made.
#[derive(Default)]
struct Outcome {
    report: String,
    run: Duration,
    setup: Duration,
    updates: Vec<Duration>,
    records: u64,
    health: Option<RunHealth>,
    /// `(candidate pairs, verified pairs)` of a mined build.
    mining: Option<(u64, u64)>,
    reports: Duration,
    epoch_apply: Duration,
    epoch_grow: Duration,
    epoch_fold: Duration,
    refolded_shards: u64,
    epoch_shards: u64,
    partials_resident: u64,
}

/// `build_streamed`, `build_mined` or `build_faulted`, then `full_report`.
fn run_one_shot(workload: Workload, cfg: &EcosystemConfig, recorder: Arc<dyn Recorder>) -> Outcome {
    let started = Instant::now();
    let ctx = match workload {
        Workload::CensusStream => ReproContext::build_streamed(cfg, DEFAULT_SHARD_SIZE, recorder),
        Workload::CensusBatchMined => ReproContext::build_mined(cfg, recorder),
        Workload::FaultedCrawl => {
            ReproContext::build_faulted(cfg, &fault_setup(cfg.seed, cfg.threads), recorder)
        }
        Workload::ZoneDiff => unreachable!("zone-diff is not a one-shot workload"),
    };
    let built = Instant::now();
    let report = black_box(ctx.full_report());
    let run = started.elapsed();
    Outcome {
        report,
        run,
        setup: run,
        updates: vec![run],
        records: (ctx.outputs.idn_len + ctx.outputs.non_idn_len) as u64,
        health: ctx.health.clone(),
        mining: ctx
            .mining
            .as_ref()
            .map(|m| (m.candidate_pairs, m.verified.len() as u64)),
        reports: run - (built - started),
        ..Outcome::default()
    }
}

/// The zone-diff loop assembled from the public pieces `run_epochs` is
/// built from: a cold streamed build and first report, then `EPOCHS`
/// warm epochs, each timed from `DaySimulator::advance` to the updated
/// `full_report`.
fn run_zone_diff(cfg: &EcosystemConfig, recorder: Arc<dyn Recorder>) -> Outcome {
    let threads = cfg.threads;
    let started = Instant::now();
    let mut span = recorder.span_at("build.ecosystem", SpanCtx::ROOT, 0);
    let (eco, corpus) =
        idnre_datagen::generate_streamed_traced(cfg, DEFAULT_SHARD_SIZE, &*recorder, span.ctx());
    span.add_records(corpus.idn_len() + corpus.non_idn_len());
    drop(span);

    let mut overlay = EpochCorpus::new(&corpus);
    let mut simulator = DaySimulator::new(DEFAULT_CHURN_PER_MILLE);
    let mut state = EpochState::new(DEFAULT_SHARD_SIZE);
    let brand_domains: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brand_domains, 0.95);
    let semantic_detector = SemanticDetector::new(&brand_domains);
    let table3_wanted = passes::table3_wanted(&eco.whois);
    let fig6_candidates = passes::fig6_candidates(eco.brands.top(30));

    let mut columns = passes::build_columns(
        &EpochSource::new(&overlay),
        &eco.blacklist,
        DEFAULT_SHARD_SIZE,
        threads,
        &*recorder,
        SpanCtx::ROOT,
    );
    let mut out = Outcome::default();
    let phase = Instant::now();
    let mut skeletons = SkeletonCache::build(&columns, threads);
    out.epoch_grow += phase.elapsed();

    let phase = Instant::now();
    let (homographs, semantic, outputs, _) = ScanPlan::with_homograph_cache(
        &detector,
        &semantic_detector,
        &columns,
        &eco.pdns,
        table3_wanted.clone(),
        fig6_candidates.clone(),
        &skeletons,
    )
    .run_epoch(
        &mut state,
        &EpochSource::new(&overlay),
        threads,
        &DeltaStream::new(),
        &*recorder,
        SpanCtx::ROOT,
    );
    out.epoch_fold += phase.elapsed();
    out.records = corpus.idn_len() + corpus.non_idn_len();

    let mut ctx = ReproContext {
        eco,
        homographs,
        semantic,
        outputs,
        recorder: recorder.clone(),
        health: None,
        mining: None,
    };
    let phase = Instant::now();
    out.report = black_box(ctx.full_report());
    out.reports += phase.elapsed();
    out.setup = started.elapsed();

    for epoch in 1..=EPOCHS {
        let update = Instant::now();
        let raw_deltas = simulator.advance(&mut overlay, epoch);
        let applied = Instant::now();
        grow_columns(&mut columns, &overlay, &ctx.eco, &raw_deltas);
        skeletons.extend_to(&columns, threads);
        let grown = Instant::now();
        let (homographs, semantic, outputs, stats) = ScanPlan::with_homograph_cache(
            &detector,
            &semantic_detector,
            &columns,
            &ctx.eco.pdns,
            table3_wanted.clone(),
            fig6_candidates.clone(),
            &skeletons,
        )
        .run_epoch(
            &mut state,
            &EpochSource::new(&overlay),
            threads,
            &DeltaStream::from_epoch_deltas(&raw_deltas),
            &*recorder,
            SpanCtx::ROOT,
        );
        let folded = Instant::now();
        ctx.homographs = homographs;
        ctx.semantic = semantic;
        ctx.outputs = outputs;
        out.report = black_box(ctx.full_report());
        let reported = Instant::now();

        out.updates.push(reported - update);
        out.epoch_apply += applied - update;
        out.epoch_grow += grown - applied;
        out.epoch_fold += folded - grown;
        out.reports += reported - folded;
        out.refolded_shards += stats.refolded;
        out.epoch_shards += stats.total_shards;
        out.partials_resident = stats.resident_partials;
    }
    out.run = started.elapsed();
    // As `run_epochs` does: the corpus's residency peak lands in the gauge.
    recorder.gauge_max(idnre_datagen::PEAK_RESIDENT_RECORDS, corpus.gauge().peak());
    out
}

fn run_workload(workload: Workload, cfg: &EcosystemConfig, recorder: Arc<dyn Recorder>) -> Outcome {
    match workload {
        Workload::ZoneDiff => run_zone_diff(cfg, recorder),
        _ => run_one_shot(workload, cfg, recorder),
    }
}

/// The oracle report a workload's runs must reproduce.
fn reference(workload: Workload, seed: u64, scale: u64) -> String {
    let cfg = config(seed, scale, THREADS);
    match workload {
        // The mined report must start with these bytes.
        Workload::CensusStream | Workload::CensusBatchMined => {
            ReproContext::build(&cfg).full_report()
        }
        Workload::ZoneDiff => {
            run_epochs(
                &cfg,
                DEFAULT_SHARD_SIZE,
                EPOCHS,
                DEFAULT_CHURN_PER_MILLE,
                Arc::new(NoopRecorder),
            )
            .final_report
        }
        Workload::FaultedCrawl => {
            let serial = config(seed, scale, 1);
            ReproContext::build_faulted(&serial, &fault_setup(seed, 1), Arc::new(NoopRecorder))
                .full_report()
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Lookups into one traced run's registry snapshot and span tree.
struct Observed<'a> {
    snapshot: &'a MetricsSnapshot,
    root: &'a TraceNode,
}

impl Observed<'_> {
    /// Summed wall of every call of stage `name` (busy time when the
    /// calls ran on several workers).
    fn stage_s(&self, name: &str) -> f64 {
        self.snapshot
            .stages
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.wall_nanos))
            .sum()
    }

    fn stages_s(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.stage_s(n)).sum()
    }

    fn stage_max_s(&self, name: &str) -> f64 {
        self.snapshot
            .stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| secs(s.max_nanos))
    }

    fn stage_records(&self, name: &str) -> u64 {
        self.snapshot
            .stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.records)
    }

    fn counter(&self, name: &str) -> u64 {
        self.snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Summed duration of the top-level spans named `name`: their wall on
    /// the calling thread, whatever ran beneath them.
    fn top_s(&self, name: &str) -> f64 {
        self.root
            .children
            .iter()
            .filter(|c| c.name == name)
            .map(|c| secs(c.duration_nanos))
            .sum()
    }
}

/// Values by name, in print order.
type Named = Vec<(&'static str, f64)>;

/// Per-layer metrics and the ledger of one traced run. Every `_s` value
/// is a total over the run; a layer the workload does not reach reads 0.
fn layers(out: &Outcome, snapshot: &MetricsSnapshot, trace: &TraceSnapshot) -> (Named, Named) {
    let seen = Observed {
        snapshot,
        root: &trace.root,
    };
    let pdns_hits = seen.counter("pdns.lookup.hit");
    let pdns_lookups = pdns_hits + seen.counter("pdns.lookup.miss");
    let outcomes: u64 = OUTCOME_COUNTERS.iter().map(|name| seen.counter(name)).sum();
    let crawl_survey = seen.stage_s("crawl.survey");
    let crawl_work = seen.stage_s("crawler.crawl");
    let sched = out.health.as_ref().and_then(|h| h.sched);
    let scan_s = seen.stage_s("analyze.scan");
    let scan_records = seen.stage_records("analyze.scan");

    let mut metrics = vec![
        ("datagen.build_s", seen.top_s("build.ecosystem")),
        (
            "datagen.registrations_s",
            seen.stages_s(&[
                "datagen.stream.plan",
                "datagen.bulk_registrations",
                "datagen.ordinary_registrations",
                "datagen.attack_injection",
                "datagen.non_idn_sample",
            ]),
        ),
        (
            "datagen.artifacts_s",
            seen.stages_s(&[
                "datagen.stream.artifacts",
                "datagen.blacklist",
                "datagen.whois",
                "datagen.pdns_traffic",
                "datagen.certificates",
                "datagen.zones",
            ]),
        ),
        (
            "datagen.peak_resident_records",
            // Batch builds keep no gauge: they materialize every record.
            snapshot
                .gauges
                .iter()
                .find(|g| g.name == idnre_datagen::PEAK_RESIDENT_RECORDS)
                .map_or(out.records, |g| g.peak) as f64,
        ),
        ("arena.columns_s", seen.stage_s("analyze.columns")),
        ("analyze.scan_s", scan_s),
        (
            "analyze.scan_ns_per_record",
            if scan_records == 0 {
                0.0
            } else {
                scan_s * 1e9 / scan_records as f64
            },
        ),
        (
            "analyze.pass.homograph_s",
            seen.stage_s("analyze.pass.homograph"),
        ),
        (
            "analyze.pass.semantic1_s",
            seen.stage_s("analyze.pass.semantic1"),
        ),
        (
            "analyze.pass.semantic2_s",
            seen.stage_s("analyze.pass.semantic2"),
        ),
        (
            "analyze.pass.activity_s",
            seen.stage_s("analyze.pass.activity"),
        ),
        ("analyze.pdns_hit_ratio", ratio(pdns_hits, pdns_lookups)),
        (
            "analyze.homograph_finding_ratio",
            ratio(
                seen.counter("homograph.findings"),
                seen.counter("homograph.candidates"),
            ),
        ),
        ("epoch.apply_s", out.epoch_apply.as_secs_f64()),
        ("epoch.grow_s", out.epoch_grow.as_secs_f64()),
        ("epoch.fold_s", out.epoch_fold.as_secs_f64()),
        (
            "epoch.refold_ratio",
            ratio(out.refolded_shards, out.epoch_shards),
        ),
        ("epoch.partials_resident", out.partials_resident as f64),
        ("crawler.survey_s", crawl_survey),
        ("crawler.work_s", crawl_work),
        (
            "crawler.overhead_s",
            if crawl_survey > 0.0 {
                crawl_survey - crawl_work
            } else {
                0.0
            },
        ),
        (
            "crawler.resolved_ratio",
            ratio(seen.counter("crawler.outcome.resolved"), outcomes),
        ),
        ("whois.survey_s", seen.stage_s("whois.survey")),
        (
            "whois.coverage_ratio",
            ratio(
                seen.counter("whois.crawl.parsed"),
                seen.counter("whois.crawl.attempted"),
            ),
        ),
        ("fault.zone_ingest_s", seen.stage_s("zone.ingest.lenient")),
        ("sched.survey_s", seen.stage_s("crawl.survey.sched")),
        (
            "sched.attempts_per_arrival",
            sched.map_or(0.0, |s| ratio(s.attempts, s.arrivals)),
        ),
        (
            "sched.shed_ratio",
            sched.map_or(0.0, |s| ratio(s.shed_total(), s.arrivals)),
        ),
        (
            "sched.breaker_opened",
            sched.map_or(0.0, |s| s.breaker_opened as f64),
        ),
        (
            "mine.bucket_index_s",
            seen.stage_s("analyze.pass.bucket_index"),
        ),
        ("mine.pair_mine_s", seen.stage_s("analyze.pass.pair_mine")),
        (
            "mine.pair_mine_max_chunk_s",
            seen.stage_max_s("analyze.pass.pair_mine"),
        ),
        (
            "mine.verified_ratio",
            out.mining
                .map_or(0.0, |(candidates, verified)| ratio(verified, candidates)),
        ),
        ("reports.full_s", out.reports.as_secs_f64()),
        (
            "reports.ext_multichar_s",
            seen.stage_s("report.ext_multichar"),
        ),
        ("reports.fig7_s", seen.stage_s("report.fig7")),
        ("reports.table3_s", seen.stage_s("report.table3")),
        ("reports.table4_s", seen.stage_s("report.table4")),
    ];

    // The ledger: each layer's wall on the run's critical path. Top-level
    // spans run one after another on the calling thread; the report
    // generators and the epoch phases are the runner's own timings.
    let ledger = vec![
        ("datagen", seen.top_s("build.ecosystem")),
        ("arena", seen.top_s("analyze.columns")),
        ("analyze", seen.top_s("analyze.scan")),
        (
            "epoch",
            (out.epoch_apply + out.epoch_grow + out.epoch_fold).as_secs_f64(),
        ),
        ("crawler", seen.top_s("crawl.survey")),
        ("whois", seen.top_s("whois.survey")),
        (
            "fault_sched",
            seen.top_s("zone.ingest.lenient") + seen.top_s("crawl.survey.sched"),
        ),
        ("mine", seen.top_s("analyze.pass.pair_mine")),
        ("reports", out.reports.as_secs_f64()),
    ];
    let attributed: f64 = ledger.iter().map(|(_, s)| s).sum();
    metrics.push(("run.unattributed_s", out.run.as_secs_f64() - attributed));
    (metrics, ledger)
}

fn json_pairs(pairs: &[(&str, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(name, value)| format!("\"{name}\":{}", json_number(*value)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_number(value: f64) -> String {
    if value == 0.0 {
        // Also turns the `-0` of an empty float sum into a plain zero.
        "0".to_string()
    } else if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("perfbench: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "inputs" => {
            let eco = Ecosystem::generate(&config(args.seed, args.scale, THREADS));
            println!(
                "{{\"inputs\":\"{:#018x}\"}}",
                dataset_fingerprint(&render_dataset(&eco))
            );
        }
        "reference" => {
            let workload = args.workload.unwrap_or_else(|| usage("missing --workload"));
            let path = args.report.unwrap_or_else(|| usage("missing --report"));
            let started = Instant::now();
            let report = reference(workload, args.seed, args.scale);
            write_file(&path, &report);
            println!(
                "{{\"reference_s\":{}}}",
                json_number(started.elapsed().as_secs_f64())
            );
        }
        "run" => {
            let workload = args.workload.unwrap_or_else(|| usage("missing --workload"));
            let path = args.report.unwrap_or_else(|| usage("missing --report"));
            let cfg = config(args.seed, args.scale, THREADS);
            let registry = args
                .trace
                .as_ref()
                .map(|_| Arc::new(Registry::with_trace()));
            let recorder: Arc<dyn Recorder> = match &registry {
                Some(registry) => registry.clone(),
                None => Arc::new(NoopRecorder),
            };
            let out = run_workload(workload, &cfg, recorder);
            let peak_rss = peak_rss_mib();
            write_file(&path, &out.report);

            let updates: Vec<String> = out
                .updates
                .iter()
                .map(|d| json_number(d.as_secs_f64()))
                .collect();
            let health = match &out.health {
                Some(h) => format!(
                    "{{\"ok\":{},\"errors\":{},\"shed\":{},\"status\":\"{}\"}}",
                    h.ok,
                    h.errors,
                    h.shed,
                    h.status.label()
                ),
                None => "null".to_string(),
            };
            let mut line = format!(
                "{{\"run_s\":{},\"setup_s\":{},\"updates_s\":[{}],\"records\":{},\
                 \"peak_rss_mib\":{},\"health\":{}",
                json_number(out.run.as_secs_f64()),
                json_number(out.setup.as_secs_f64()),
                updates.join(","),
                out.records,
                json_number(peak_rss),
                health,
            );
            if let (Some(registry), Some(trace_path)) = (&registry, &args.trace) {
                let snapshot = registry.snapshot();
                let trace = registry
                    .trace_snapshot()
                    .expect("a tracing registry keeps a trace");
                write_file(trace_path, &trace.render_chrome_json());
                let (metrics, ledger) = layers(&out, &snapshot, &trace);
                line.push_str(&format!(
                    ",\"layers\":{},\"ledger\":{}",
                    json_pairs(&metrics),
                    json_pairs(&ledger)
                ));
            }
            line.push('}');
            println!("{line}");
        }
        other => usage(&format!("unknown command {other:?}")),
    }
}
