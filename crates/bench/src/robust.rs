//! Degrade-and-continue: fault-injected ingest and survey harnesses, the
//! error budget that grades the run, and the "Run health" report section.
//!
//! The strict pipeline treats every input as pristine and every query as
//! answered; this module is the other half of the reproduction story. A
//! seeded [`FaultPlan`] corrupts a slice of the zone and WHOIS corpora and
//! makes a slice of crawl attempts fail; the lenient parsers and the retry
//! executor absorb what they can; whatever is genuinely lost lands in an
//! [`ErrorBudget`] whose verdict — clean, degraded, budget-exceeded —
//! becomes the process exit code. Everything here is driven by virtual
//! time and stateless hashes, so a fixed fault spec replays byte-for-byte
//! across runs *and* across worker-thread counts.

use crate::passes::{host_model, outcome_index, usage_index, WhoisPass};
use idnre_analyze::{Population, RecordSource, ShardedScan, SliceSource};
use idnre_crawler::{
    sched_slice_span, survey_slice_span, Crawler, FaultContext, ATTEMPTS_HISTOGRAM, FAULT_COUNTERS,
    OUTCOME_COUNTERS, RETRY_COUNTERS, SCHED_COUNTERS, SCHED_LATENCY_HISTOGRAM, SCHED_SLICE_SPAN,
    SURVEY_SLICE_RECORDS, SURVEY_SLICE_SPAN, USAGE_COUNTERS,
};
use idnre_datagen::{DomainRegistration, Ecosystem};
use idnre_fault::{ErrorBudget, FaultPlan, RetryPolicy, RunStatus, SimClock};
use idnre_sched::{SchedConfig, SchedStats};
use idnre_telemetry::{Recorder, SpanCtx};
use idnre_whois::CrawlStats;
use idnre_zonefile::{parse_zone_lenient, write_zone, Zone};

/// How a faulted run is configured: the fault schedule, the retry
/// discipline, and how many survey worker threads to use (the results are
/// identical for any thread count; threads only change wall time).
#[derive(Debug, Clone, Copy)]
pub struct FaultSetup {
    /// Which attempts and records fail, and how often.
    pub plan: FaultPlan,
    /// Attempts, backoff and deadline per crawl target.
    pub policy: RetryPolicy,
    /// Worker threads of the fault stages, lenient zone ingest and the
    /// crawl survey (clamped to 1..=64).
    pub threads: usize,
    /// When set, the crawl survey runs through the event-driven
    /// scheduler (bounded window, rate limits, breakers, load shedding)
    /// instead of the per-domain synchronous schedules.
    pub sched: Option<SchedConfig>,
}

impl FaultSetup {
    /// A setup with the default retry policy, on the machine's available
    /// parallelism.
    pub fn from_plan(plan: FaultPlan) -> Self {
        FaultSetup {
            plan,
            policy: RetryPolicy::default(),
            threads: idnre_par::default_threads(),
            sched: None,
        }
    }

    /// Enables the scheduled crawl survey, carrying this setup's retry
    /// policy into the scheduler configuration.
    pub fn with_sched(self, sched: SchedConfig) -> Self {
        FaultSetup {
            sched: Some(SchedConfig {
                policy: self.policy,
                ..sched
            }),
            ..self
        }
    }
}

/// What a lenient ingest stage attempted and lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records (zone lines) attempted.
    pub attempted: u64,
    /// Records skipped as unparseable.
    pub skipped: u64,
}

impl IngestStats {
    /// Fraction that survived, per mille (1000 when nothing was attempted).
    pub fn coverage_per_mille(&self) -> u64 {
        ((self.attempted - self.skipped.min(self.attempted)) * 1000)
            .checked_div(self.attempted)
            .unwrap_or(1000)
    }
}

/// Deterministic aggregate of a fault-injected crawl survey. Every field
/// is derived from seeded hashes and virtual clocks, so two runs with the
/// same [`FaultSetup`] produce `==` values regardless of thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SurveyStats {
    /// Domains crawled.
    pub domains: u64,
    /// DNS attempts performed across all schedules.
    pub attempts: u64,
    /// Retries performed (DNS + HTTP).
    pub retries: u64,
    /// Schedules that ended exhausted (no terminal success).
    pub exhausted: u64,
    /// Schedules cut short by the per-target deadline.
    pub deadline_hit: u64,
    /// Faults injected across all attempts.
    pub faults_injected: u64,
    /// Domains whose terminal verdict was manufactured by a fault.
    pub terminal_faulted: u64,
    /// Virtual backoff slept, in nanoseconds.
    pub backoff_nanos: u64,
    /// Virtual time consumed, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Resolution outcomes in [`OUTCOME_COUNTERS`] order.
    pub outcomes: [u64; 5],
    /// Usage categories in [`idnre_crawler::UsageCategory::ALL`] order.
    pub usage: [u64; 7],
}

impl SurveyStats {
    fn merge(&mut self, other: &SurveyStats) {
        self.domains += other.domains;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.exhausted += other.exhausted;
        self.deadline_hit += other.deadline_hit;
        self.faults_injected += other.faults_injected;
        self.terminal_faulted += other.terminal_faulted;
        self.backoff_nanos += other.backoff_nanos;
        self.elapsed_nanos += other.elapsed_nanos;
        for i in 0..self.outcomes.len() {
            self.outcomes[i] += other.outcomes[i];
        }
        for i in 0..self.usage.len() {
            self.usage[i] += other.usage[i];
        }
    }
}

/// The terminal health of one faulted run: what each stage attempted and
/// lost, the error budget's accounting, and the exit-code verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHealth {
    /// Fault profile name.
    pub profile: &'static str,
    /// Replay seed.
    pub seed: u64,
    /// Retry policy the survey ran under.
    pub policy: RetryPolicy,
    /// Zone-file ingest accounting.
    pub zones: IngestStats,
    /// WHOIS crawl accounting.
    pub whois: CrawlStats,
    /// Crawl survey accounting.
    pub survey: SurveyStats,
    /// Records the budget saw succeed.
    pub ok: u64,
    /// Records the budget saw fail (fault-layer damage only).
    pub errors: u64,
    /// Records the scheduler deliberately shed (counted as lost coverage,
    /// not as errors).
    pub shed: u64,
    /// The budget's allowance, per mille.
    pub allowed_per_mille: u32,
    /// Observed error rate, per mille.
    pub error_per_mille: u64,
    /// Scheduler accounting, when the survey ran through the event-driven
    /// scheduler.
    pub sched: Option<SchedStats>,
    /// The verdict that becomes the process exit code.
    pub status: RunStatus,
}

impl RunHealth {
    /// Folds the per-stage accounting, the scheduler's when the survey ran
    /// through it, and the budget's verdict into the run's terminal health.
    pub fn new(
        setup: &FaultSetup,
        zones: IngestStats,
        whois: CrawlStats,
        survey: SurveyStats,
        budget: &ErrorBudget,
        sched: Option<SchedStats>,
    ) -> Self {
        RunHealth {
            profile: setup.plan.profile().name,
            seed: setup.plan.seed(),
            policy: setup.policy,
            zones,
            whois,
            survey,
            ok: budget.ok(),
            errors: budget.errors(),
            shed: budget.shed(),
            allowed_per_mille: budget.allowed_per_mille(),
            error_per_mille: budget.error_per_mille(),
            sched,
            status: budget.status(),
        }
    }

    /// Renders the "Run health" markdown section appended to faulted
    /// reports. Deterministic for a fixed fault spec: every number comes
    /// from seeded hashes and virtual clocks.
    pub fn render(&self) -> String {
        let whois_attempted = self.whois.attempted();
        let whois_per_mille = (self.whois.parsed as u64 * 1000)
            .checked_div(whois_attempted as u64)
            .unwrap_or(1000);
        let mut out = String::new();
        out.push_str("## Run health\n\n");
        out.push_str(&format!(
            "Fault profile `{}`, seed {:#x}; retry policy: {} attempts, \
             {} ms base backoff ×{}, {} s per-target deadline. Partial results \
             below are annotated with coverage instead of being discarded.\n\n",
            self.profile,
            self.seed,
            self.policy.max_attempts,
            self.policy.base_backoff_nanos / 1_000_000,
            self.policy.backoff_multiplier,
            self.policy.deadline_nanos / 1_000_000_000,
        ));
        out.push_str("| Stage | Attempted | Lost | Coverage |\n");
        out.push_str("|---|---:|---:|---:|\n");
        out.push_str(&format!(
            "| Zone ingest (lenient) | {} lines | {} skipped | {} |\n",
            self.zones.attempted,
            self.zones.skipped,
            per_mille_pct(self.zones.coverage_per_mille()),
        ));
        out.push_str(&format!(
            "| WHOIS crawl | {} domains | {} blocked, {} unparsed, {} no server | {} |\n",
            whois_attempted,
            self.whois.blocked,
            self.whois.parse_failures,
            self.whois.no_server,
            per_mille_pct(whois_per_mille),
        ));
        let survey_ok_per_mille = ((self.survey.domains - self.survey.terminal_faulted) * 1000)
            .checked_div(self.survey.domains)
            .unwrap_or(1000);
        out.push_str(&format!(
            "| Crawl survey | {} domains | {} fault-terminal | {} |\n\n",
            self.survey.domains,
            self.survey.terminal_faulted,
            per_mille_pct(survey_ok_per_mille),
        ));
        out.push_str(&format!(
            "Retry schedule: {} DNS attempts over {} domains, {} retries, \
             {} schedules exhausted, {} deadline-cut, {} faults injected, \
             {} ms virtual backoff.\n\n",
            self.survey.attempts,
            self.survey.domains,
            self.survey.retries,
            self.survey.exhausted,
            self.survey.deadline_hit,
            self.survey.faults_injected,
            self.survey.backoff_nanos / 1_000_000,
        ));
        if let Some(sched) = &self.sched {
            out.push_str(&format!(
                "Crawl scheduler: {} arrivals, {} attempts, {} executed / \
                 {} shed ({} admission, {} breaker-open, {} starved), \
                 {} rate-deferred; breakers opened {} / half-open {} / \
                 reclosed {}; peak queue {} / peak in-flight {}; max query \
                 latency {} ms.\n\n",
                sched.arrivals,
                sched.attempts,
                sched.arrivals - sched.shed_total(),
                sched.shed_total(),
                sched.shed_admission,
                sched.shed_breaker,
                sched.shed_starved,
                sched.deferred,
                sched.breaker_opened,
                sched.breaker_half_open,
                sched.breaker_reclosed,
                sched.peak_queue_depth,
                sched.peak_inflight,
                sched.max_latency_nanos / 1_000_000,
            ));
        }
        out.push_str(&format!(
            "Error budget: {} ok / {} errors / {} shed — {}‰ observed \
             against {}‰ allowed → **{}** (exit code {}).\n",
            self.ok,
            self.errors,
            self.shed,
            self.error_per_mille,
            self.allowed_per_mille,
            self.status.label(),
            self.status.exit_code(),
        ));
        out
    }
}

fn per_mille_pct(per_mille: u64) -> String {
    format!("{}.{}%", per_mille / 10, per_mille % 10)
}

/// Round-trips the generated zones through master-file text with seeded
/// line corruption, then re-ingests them leniently: corrupted lines are
/// skipped and accounted (`zone.lenient.skipped`, the error budget)
/// instead of aborting the run, as strict parsing would on the first
/// corrupt line. The salvaged zones are counted and dropped: nothing
/// downstream reads them, since a crawled name is delegated by its own
/// registration (see [`crawl_survey_at`]).
///
/// Each zone is one shard on the work-queue executor: corruption is a
/// stateless hash of `(origin, line)`, so the stats are identical for
/// every `threads`.
fn ingest_zones_faulted_at(
    zones: &[Zone],
    plan: &FaultPlan,
    budget: &ErrorBudget,
    threads: usize,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> IngestStats {
    let mut span = recorder.span_at("zone.ingest.lenient", parent, 0);
    let per_zone = idnre_par::par_map(zones, threads, |zone| {
        let origin = zone.origin.to_string();
        let text: String = write_zone(zone)
            .lines()
            .enumerate()
            .map(|(i, line)| {
                // Directives stay intact: losing `$ORIGIN` would poison
                // every following line, which is not the failure mode a
                // per-record corruption models.
                if !line.starts_with('$') && plan.corrupts("zone", &format!("{origin}:{i}")) {
                    "xn--damaged IN GARBLED ???\n".to_string()
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        let lenient = parse_zone_lenient(&origin, &text);
        budget.record_ok(lenient.parsed() as u64);
        budget.record_error(lenient.errors.len() as u64);
        IngestStats {
            attempted: lenient.attempted as u64,
            skipped: lenient.errors.len() as u64,
        }
    });
    let mut stats = IngestStats::default();
    for shard_stats in per_zone {
        stats.attempted += shard_stats.attempted;
        stats.skipped += shard_stats.skipped;
    }
    recorder.add("zone.lenient.attempted", stats.attempted);
    recorder.add("zone.lenient.skipped", stats.skipped);
    span.add_records(stats.attempted);
    stats
}

/// Replays the paper's WHOIS collection over the registered IDN corpus
/// (see [`WhoisPass`]) as a one-pass fused scan on the context's worker
/// count: the stats, counters and budget are identical for any thread
/// count. Telemetry lands in [`idnre_whois::CRAWL_COUNTERS`]
/// (`whois.parse.failed` among them) plus `whois.coverage.per_mille`.
pub fn whois_survey(
    eco: &Ecosystem,
    plan: Option<&FaultPlan>,
    budget: Option<&ErrorBudget>,
    recorder: &dyn Recorder,
) -> CrawlStats {
    // The survey covers IDNs only; an empty non-IDN side skips that walk.
    let source = SliceSource::new(&eco.idn_registrations, &[]);
    let mut scan = ShardedScan::new();
    let handle = scan.register(WhoisPass::new(&eco.whois, plan, budget));
    let stats = scan
        .run(
            &source,
            crate::DEFAULT_SHARD_SIZE,
            eco.config.threads,
            recorder,
        )
        .take(&handle);
    record_whois_coverage(&stats, recorder);
    stats
}

/// Adds `whois.coverage.per_mille` for a finished WHOIS survey (nothing
/// when it attempted no domain).
pub(crate) fn record_whois_coverage(stats: &CrawlStats, recorder: &dyn Recorder) {
    if let Some(per_mille) = (stats.parsed as u64 * 1000).checked_div(stats.attempted() as u64) {
        recorder.add("whois.coverage.per_mille", per_mille);
    }
}

/// A faulted build's stages after the fused scan, in their one order:
/// lenient zone ingest, then the crawl survey over `source`. Folds both,
/// the scan's WHOIS accounting and `budget`'s verdict into the run's
/// [`RunHealth`].
#[allow(clippy::too_many_arguments)]
pub fn faulted_stages(
    zones: &[Zone],
    source: &dyn RecordSource,
    shard_size: usize,
    setup: &FaultSetup,
    whois: CrawlStats,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> RunHealth {
    let zone_stats =
        ingest_zones_faulted_at(zones, &setup.plan, budget, setup.threads, recorder, parent);
    let (survey, sched) = crawl_survey_at(source, shard_size, setup, budget, recorder, parent);
    RunHealth::new(setup, zone_stats, whois, survey, budget, sched)
}

/// The fault-injected crawl survey: every registered domain of `source`
/// (IDNs, then non-IDNs) crawled under `setup`'s fault plan on
/// `setup.threads` workers, read through the source at most `shard_size`
/// records at a time, so a streamed source keeps its residency bound.
///
/// The population is split into fixed-size slices
/// ([`idnre_crawler::SURVEY_SLICE_RECORDS`] domains each, one window may
/// straddle the IDN/non-IDN boundary), each under its own slice span, so
/// the survey's subtree has the same shape at any worker count. Without
/// `setup.sched` every domain runs the synchronous retry schedule on its
/// own virtual clock (`crawl.survey.faulted`). With it, each slice runs
/// one deterministic scheduler instance (`crawl.survey.sched`): shared
/// virtual timeline, bounded in-flight window, per-nameserver rate limits
/// and circuit breakers, and priority-classed load shedding.
///
/// Executed domains whose terminal verdict was fault-made count as errors
/// on `budget`, other executed domains as ok, and shed domains as shed
/// (lost coverage that never counts as error). Every fault decision is a
/// stateless hash and each scheduler is single-threaded, so the stats,
/// counters and budget replay byte-identically across thread counts.
pub fn crawl_survey_at(
    source: &dyn RecordSource,
    shard_size: usize,
    setup: &FaultSetup,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (SurveyStats, Option<SchedStats>) {
    let span_name = match setup.sched {
        Some(_) => "crawl.survey.sched",
        None => "crawl.survey.faulted",
    };
    let mut span = recorder.span_at(span_name, parent, 0);
    let shard_size = shard_size.max(1);
    let threads = setup.threads;
    let crawler = host_table(source, shard_size, threads);
    // Pre-register every counter and histogram so snapshot ordering
    // cannot depend on which worker thread touches a name first.
    let mut groups = vec![
        &OUTCOME_COUNTERS[..],
        &RETRY_COUNTERS[..],
        &FAULT_COUNTERS[..],
        &USAGE_COUNTERS[..],
    ];
    let stages: &[&str] = match setup.sched {
        Some(_) => {
            groups.push(&SCHED_COUNTERS[..]);
            &[
                ATTEMPTS_HISTOGRAM,
                SCHED_LATENCY_HISTOGRAM,
                SCHED_SLICE_SPAN,
            ]
        }
        None => &[ATTEMPTS_HISTOGRAM, SURVEY_SLICE_SPAN],
    };
    recorder.preregister_groups(&groups);
    recorder.preregister_stages(stages);

    let total = source.population_len(Population::Idn) + source.population_len(Population::NonIdn);
    let slice_starts: Vec<u64> = (0..total).step_by(SURVEY_SLICE_RECORDS).collect();
    let crawler = &crawler;
    let survey_ctx = span.ctx();
    let per_slice = idnre_par::par_chunks(&slice_starts, threads, 1, |slice_index, starts| {
        let (start, index) = (starts[0], slice_index as u64);
        let end = (start + SURVEY_SLICE_RECORDS as u64).min(total);
        let mut local = SurveyStats::default();
        match &setup.sched {
            None => {
                let mut slice_span = survey_slice_span(recorder, survey_ctx, index);
                slice_span.add_records(end - start);
                let ctx = FaultContext {
                    plan: setup.plan,
                    policy: setup.policy,
                };
                with_records(source, start..end, shard_size, &mut |records| {
                    for reg in records {
                        let mut clock = SimClock::new();
                        let crawl = crawler.crawl_faulted(&reg.domain, &ctx, &mut clock, recorder);
                        local.domains += 1;
                        local.attempts += u64::from(crawl.resolution.attempts);
                        local.retries += u64::from(crawl.resolution.retries)
                            + u64::from(crawl.http_attempts.saturating_sub(1));
                        local.exhausted += u64::from(crawl.resolution.exhausted);
                        local.deadline_hit += u64::from(crawl.resolution.deadline_hit);
                        local.faults_injected += u64::from(crawl.faults_injected);
                        local.terminal_faulted += u64::from(crawl.terminal_faulted);
                        local.backoff_nanos += crawl.resolution.backoff_nanos;
                        local.elapsed_nanos += crawl.elapsed_nanos;
                        local.outcomes[outcome_index(crawl.resolution.outcome)] += 1;
                        local.usage[usage_index(crawl.category)] += 1;
                        if crawl.terminal_faulted {
                            budget.record_error(1);
                        } else {
                            budget.record_ok(1);
                        }
                    }
                });
                (local, None)
            }
            Some(config) => {
                let mut slice_span = sched_slice_span(recorder, survey_ctx, index);
                slice_span.add_records(end - start);
                // The scheduler needs the whole slice's names at once, and
                // a streamed read holds one shard at a time.
                let mut domains = Vec::with_capacity((end - start) as usize);
                with_records(source, start..end, shard_size, &mut |records| {
                    domains.extend(records.iter().map(|reg| reg.domain.clone()));
                });
                let out = crawler.crawl_slice_scheduled(&domains, &setup.plan, config, recorder);
                for crawl in &out.crawls {
                    local.domains += 1;
                    local.attempts += u64::from(crawl.attempts);
                    local.retries += u64::from(crawl.retries);
                    local.exhausted += u64::from(crawl.exhausted);
                    local.deadline_hit += u64::from(crawl.deadline_hit);
                    local.faults_injected += u64::from(crawl.faults_injected);
                    local.terminal_faulted += u64::from(crawl.terminal_faulted);
                    local.backoff_nanos += crawl.backoff_nanos;
                    local.elapsed_nanos += crawl.latency_nanos;
                    if let Some(outcome) = crawl.dns_outcome {
                        local.outcomes[outcome_index(outcome)] += 1;
                    }
                    if let Some(category) = crawl.category {
                        local.usage[usage_index(category)] += 1;
                    }
                    if crawl.shed.is_some() {
                        budget.record_shed(1);
                    } else if crawl.terminal_faulted {
                        budget.record_error(1);
                    } else {
                        budget.record_ok(1);
                    }
                }
                (local, Some(out.stats))
            }
        }
    });
    let mut stats = SurveyStats::default();
    let mut sched = setup.sched.map(|_| SchedStats::default());
    for (local, slice_sched) in &per_slice {
        stats.merge(local);
        if let (Some(sched), Some(slice_sched)) = (&mut sched, slice_sched) {
            sched.merge(slice_sched);
        }
    }
    span.add_records(stats.domains);
    (stats, sched)
}

/// The survey's crawler: every record's [`host_model`], set in population
/// order (IDNs, then non-IDNs). A domain registered twice keeps its last
/// copy's behaviour and its last served page, as a per-domain table must.
/// No zone is loaded: [`Crawler::set_host`] delegates each crawled name by
/// its own registration. Shards are modelled on the worker pool in
/// windows of `4 × threads` and applied in shard order.
fn host_table(source: &dyn RecordSource, shard_size: usize, threads: usize) -> Crawler {
    let mut shards = Vec::new();
    for population in [Population::Idn, Population::NonIdn] {
        let len = source.population_len(population);
        for start in (0..len).step_by(shard_size) {
            shards.push((population, start, (len - start).min(shard_size as u64)));
        }
    }
    let mut crawler = Crawler::new();
    for window in shards.chunks(4 * threads.max(1)) {
        let modelled = idnre_par::par_map(window, threads, |&(population, start, len)| {
            let mut hosts = Vec::with_capacity(len as usize);
            source.with_shard(population, start, len as usize, &mut |records| {
                hosts.extend(
                    records
                        .iter()
                        .map(|reg| (reg.domain.clone(), host_model(reg))),
                );
            });
            hosts
        });
        for (domain, (behavior, page)) in modelled.into_iter().flatten() {
            crawler.set_host(&domain, behavior, page);
        }
    }
    crawler
}

/// Calls `f` with the records at `positions` of the concatenated IDN +
/// non-IDN population, read through `source` at most `shard_size`
/// records at a time.
fn with_records(
    source: &dyn RecordSource,
    positions: std::ops::Range<u64>,
    shard_size: usize,
    f: &mut dyn FnMut(&[DomainRegistration]),
) {
    let idn = source.population_len(Population::Idn);
    let mut at = positions.start;
    while at < positions.end {
        let (population, offset, stop) = if at < idn {
            (Population::Idn, at, positions.end.min(idn))
        } else {
            (Population::NonIdn, at - idn, positions.end)
        };
        let len = (stop - at).min(shard_size as u64);
        source.with_shard(population, offset, len as usize, f);
        at += len;
    }
}
