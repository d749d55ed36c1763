//! The survey passes against the table-driven crawlers they replace: the
//! crawl pass derives every host from its own record, so its counters
//! must equal a `Crawler` loaded with the whole corpus wherever domains
//! are unique, and a one-host `Crawler` per record everywhere — duplicate
//! bulk domains included. The faulted crawl survey keeps the table: a
//! duplicate domain takes its last copy's model. The WHOIS pass must not
//! depend on the worker count, budget tallies included.

use idnre_analyze::{ShardedScan, SliceSource};
use idnre_bench::passes::{self, CrawlPass, CRAWL_SURVEY_COUNTERS};
use idnre_bench::{robust, FaultSetup, ReproContext};
use idnre_crawler::Crawler;
use idnre_datagen::{DomainRegistration, Ecosystem, EcosystemConfig};
use idnre_fault::{ErrorBudget, FaultPlan, FaultProfile, RetryPolicy};
use idnre_telemetry::{Registry, SpanCtx};
use std::collections::HashSet;
use std::sync::Arc;

fn corpus(eco: &Ecosystem) -> impl Iterator<Item = &DomainRegistration> {
    eco.idn_registrations
        .iter()
        .chain(&eco.non_idn_registrations)
}

fn counters(registry: &Registry) -> Vec<(&'static str, u64)> {
    CRAWL_SURVEY_COUNTERS
        .iter()
        .map(|&name| (name, registry.counter_value(name)))
        .collect()
}

/// At the scale-2000 config every domain is unique, so loading the whole
/// corpus into one table-driven `Crawler` (what the survey did before it
/// rode the scan) is an exact reference for a plain build's counters.
#[test]
fn crawl_counters_match_the_table_driven_crawler_on_unique_domains() {
    let config = EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads: 2,
        ..EcosystemConfig::default()
    };
    let registry = Arc::new(Registry::new());
    let ctx = ReproContext::build_recorded(&config, registry.clone());
    let mut seen = HashSet::new();
    for reg in corpus(&ctx.eco) {
        assert!(seen.insert(reg.domain.as_str()), "duplicate {}", reg.domain);
    }

    let mut crawler = Crawler::new();
    for zone in &ctx.eco.zones {
        crawler.add_zone(zone);
    }
    for reg in corpus(&ctx.eco) {
        let (behavior, page) = passes::host_model(reg);
        crawler.set_host(&reg.domain, behavior, page);
    }
    let reference = Registry::new();
    for reg in corpus(&ctx.eco) {
        crawler.crawl_recorded(&reg.domain, &reference);
    }
    assert_eq!(counters(&registry), counters(&reference));
    assert_eq!(
        counters(&registry).iter().map(|(_, n)| n).sum::<u64>(),
        2 * (ctx.outputs.idn_len + ctx.outputs.non_idn_len),
        "one outcome and one usage category per record"
    );
}

/// At scale 50 the bulk stage keeps duplicate domains as distinct
/// records. The pass crawls each with its own model: a fresh one-host
/// `Crawler` per record is the reference.
#[test]
fn crawl_pass_matches_a_one_host_crawler_per_record() {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 50,
        threads: 2,
        ..EcosystemConfig::default()
    });
    let mut seen = HashSet::new();
    let duplicates = corpus(&eco)
        .filter(|reg| !seen.insert(reg.domain.as_str()))
        .count();
    assert!(
        duplicates > 0,
        "the scale-50 corpus lost its duplicate domains"
    );

    let reference = Registry::new();
    for reg in corpus(&eco) {
        let (behavior, page) = passes::host_model(reg);
        let mut crawler = Crawler::new();
        crawler.set_host(&reg.domain, behavior, page);
        crawler.crawl_recorded(&reg.domain, &reference);
    }

    let registry = Registry::new();
    let mut scan = ShardedScan::new();
    let handle = scan.register(CrawlPass);
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let totals = scan
        .run_at(&source, 1024, 2, &registry, SpanCtx::NONE)
        .take(&handle);
    assert_eq!(counters(&registry), counters(&reference));
    let expected: Vec<u64> = counters(&reference).iter().map(|&(_, n)| n).collect();
    assert_eq!(totals.to_vec(), expected);
}

/// The faulted crawl survey crawls every record against one host table
/// filled in population order, so a duplicate domain takes its last
/// copy's behaviour and last served page. Without faults and with a
/// single attempt, its tallies must equal the table-driven `Crawler`
/// over the same population, duplicates included.
#[test]
fn faulted_survey_matches_the_table_driven_crawler_on_duplicate_domains() {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 50,
        threads: 2,
        ..EcosystemConfig::default()
    });
    let mut seen = HashSet::new();
    let duplicates = corpus(&eco)
        .filter(|reg| !seen.insert(reg.domain.as_str()))
        .count();
    assert!(
        duplicates > 0,
        "the scale-50 corpus lost its duplicate domains"
    );

    let mut crawler = Crawler::new();
    for reg in corpus(&eco) {
        let (behavior, page) = passes::host_model(reg);
        crawler.set_host(&reg.domain, behavior, page);
    }
    let reference = Registry::new();
    for reg in corpus(&eco) {
        crawler.crawl_recorded(&reg.domain, &reference);
    }
    let expected: Vec<u64> = counters(&reference).iter().map(|&(_, n)| n).collect();

    let setup = FaultSetup {
        plan: FaultPlan::new(1, FaultProfile::none()),
        policy: RetryPolicy::single_attempt(),
        threads: 2,
        sched: None,
    };
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let (survey, _) = robust::crawl_survey_at(
        &source,
        1024,
        &setup,
        &ErrorBudget::new(0),
        &Registry::new(),
        SpanCtx::NONE,
    );
    let tallies: Vec<u64> = survey
        .outcomes
        .iter()
        .chain(&survey.usage)
        .copied()
        .collect();
    assert_eq!(tallies, expected);
}

/// `whois_survey` is a sharded scan on the context's worker count; its
/// stats, counters and error-budget tallies must not depend on it.
#[test]
fn whois_survey_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        let eco = Ecosystem::generate(&EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            threads,
            ..EcosystemConfig::default()
        });
        let plan = FaultPlan::from_spec("flaky:7").expect("valid fault spec");
        let budget = ErrorBudget::new(plan.profile().budget_per_mille);
        let registry = Registry::new();
        let stats = robust::whois_survey(&eco, Some(&plan), Some(&budget), &registry);
        let counters: Vec<u64> = idnre_whois::CRAWL_COUNTERS
            .iter()
            .chain(&["whois.coverage.per_mille"])
            .map(|name| registry.counter_value(name))
            .collect();
        (stats, budget.ok(), budget.errors(), counters)
    };
    let single = run(1);
    assert!(single.2 > 0, "flaky corrupted no WHOIS transfer");
    assert_eq!(single.0.attempted() as u64, single.3[0]);
    assert_eq!(single, run(4));
}
