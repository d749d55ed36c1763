//! WHOIS crawl simulation — Section III's collection process as code.
//!
//! The paper obtained WHOIS for only 50.19% of its IDNs; "the two major
//! reasons for missing WHOIS of the remaining IDNs are the request block
//! from some registrars and parsing failures from the WHOIS crawler", with
//! iTLD parse success at just 1.1%. This module models that process: each
//! registrar's WHOIS server has a rate limit and a block policy, and each
//! response parses (or not) per its dialect. Coverage then *emerges* from
//! the crawl instead of being sampled directly.

use crate::parser::{parse_whois, ParseWhoisError};
use crate::record::WhoisRecord;
use idnre_telemetry::Recorder;
use std::collections::HashMap;

/// Counter names [`WhoisCrawler::crawl_batch_recorded`] maintains, for
/// pre-registration (a counter that never fires still shows up at zero).
/// `whois.parse.failed` sits alongside coverage so the paper's ≈50%
/// missing-WHOIS story is observable, not just an aggregate.
pub const CRAWL_COUNTERS: [&str; 5] = [
    "whois.crawl.attempted",
    "whois.crawl.parsed",
    "whois.crawl.blocked",
    "whois.parse.failed",
    "whois.crawl.no_server",
];

/// How a registrar's WHOIS endpoint behaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPolicy {
    /// Queries allowed per crawl window; further queries are refused.
    /// `u32::MAX` means unlimited.
    pub rate_limit: u32,
    /// Whether the registrar blocks bulk crawlers outright.
    pub blocks_crawlers: bool,
    /// Probability (per mille) that a served response fails to parse
    /// (unsupported dialect, localized field names, …).
    pub unparseable_per_mille: u32,
}

impl ServerPolicy {
    /// An open gTLD registrar endpoint.
    pub fn open() -> Self {
        ServerPolicy {
            rate_limit: u32::MAX,
            blocks_crawlers: false,
            unparseable_per_mille: 50,
        }
    }

    /// A rate-limited endpoint.
    pub fn rate_limited(limit: u32) -> Self {
        ServerPolicy {
            rate_limit: limit,
            blocks_crawlers: false,
            unparseable_per_mille: 50,
        }
    }

    /// A registry whose responses rarely parse (the iTLD situation: only
    /// 1.1% of iTLD WHOIS parsed).
    pub fn exotic_dialect() -> Self {
        ServerPolicy {
            rate_limit: u32::MAX,
            blocks_crawlers: false,
            unparseable_per_mille: 989,
        }
    }

    /// A registrar that blocks bulk crawling.
    pub fn blocking() -> Self {
        ServerPolicy {
            rate_limit: 0,
            blocks_crawlers: true,
            unparseable_per_mille: 0,
        }
    }

    /// Whether a crawl quota can refuse a query: the endpoint serves
    /// crawlers at all and its rate limit is not unlimited. Only such
    /// endpoints make [`WhoisCrawler::crawl`] count queries, and so depend
    /// on the queries before it.
    pub fn is_rate_limited(&self) -> bool {
        !self.blocks_crawlers && self.rate_limit != u32::MAX
    }
}

/// Why one domain's WHOIS was not obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CrawlFailure {
    /// The registrar refused the query (block or rate limit).
    Blocked,
    /// A response arrived but the parser could not normalize it.
    ParseFailure,
    /// No server is known for the domain's registrar.
    NoServer,
}

/// Outcome statistics of one crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Successfully parsed records.
    pub parsed: usize,
    /// Refused by rate limit or block policy.
    pub blocked: usize,
    /// Served but unparseable.
    pub parse_failures: usize,
    /// Registrar unknown.
    pub no_server: usize,
}

impl CrawlStats {
    /// Domains attempted: each lands in exactly one outcome.
    pub fn attempted(&self) -> usize {
        self.parsed + self.blocked + self.parse_failures + self.no_server
    }

    /// Coverage rate over all attempted domains.
    pub fn coverage(&self) -> f64 {
        let total = self.attempted();
        if total == 0 {
            0.0
        } else {
            self.parsed as f64 / total as f64
        }
    }
}

/// The crawl driver: registrar endpoints plus per-endpoint usage counters.
#[derive(Debug, Clone, Default)]
pub struct WhoisCrawler {
    servers: HashMap<String, ServerPolicy>,
    served: HashMap<String, u32>,
}

impl WhoisCrawler {
    /// Creates a crawler with no known servers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a registrar endpoint.
    pub fn add_server(&mut self, registrar: &str, policy: ServerPolicy) {
        self.servers.insert(registrar.to_string(), policy);
    }

    /// Whether any registered endpoint has a quota that can bite (see
    /// [`ServerPolicy::is_rate_limited`]). Without one,
    /// [`WhoisCrawler::crawl`] equals [`WhoisCrawler::crawl_unmetered`],
    /// so a crawl may be split across threads in any order.
    pub fn is_rate_limited(&self) -> bool {
        self.servers.values().any(ServerPolicy::is_rate_limited)
    }

    /// Crawls one domain through its registrar, given the raw response the
    /// server would serve. Returns the parsed record or the failure reason.
    /// This is the rate-limit bookkeeping of the registrar's quota around
    /// [`WhoisCrawler::crawl_unmetered`].
    ///
    /// # Errors
    ///
    /// Returns a [`CrawlFailure`] naming why coverage was lost.
    pub fn crawl(
        &mut self,
        registrar: &str,
        raw_response: &str,
    ) -> Result<WhoisRecord, CrawlFailure> {
        if let Some(policy) = self.servers.get(registrar) {
            if policy.is_rate_limited() {
                let used = self.served.entry(registrar.to_string()).or_insert(0);
                if *used >= policy.rate_limit {
                    return Err(CrawlFailure::Blocked);
                }
                *used += 1;
            }
        }
        self.crawl_unmetered(registrar, raw_response)
    }

    /// The stateless half of [`WhoisCrawler::crawl`]: the registrar's
    /// policy lookup, its crawler block, the parse lottery and the parse,
    /// without counting the query against any rate limit.
    ///
    /// # Errors
    ///
    /// Returns a [`CrawlFailure`] naming why coverage was lost.
    pub fn crawl_unmetered(
        &self,
        registrar: &str,
        raw_response: &str,
    ) -> Result<WhoisRecord, CrawlFailure> {
        let policy = self.servers.get(registrar).ok_or(CrawlFailure::NoServer)?;
        if policy.blocks_crawlers {
            return Err(CrawlFailure::Blocked);
        }
        // Deterministic "parse lottery" per response content: a stable hash
        // decides whether this response falls in the unparseable share.
        let roll = raw_response
            .bytes()
            .fold(0u32, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u32))
            % 1000;
        if roll < policy.unparseable_per_mille {
            return Err(CrawlFailure::ParseFailure);
        }
        parse_whois(raw_response).map_err(|e| match e {
            ParseWhoisError::Refused => CrawlFailure::Blocked,
            _ => CrawlFailure::ParseFailure,
        })
    }

    /// Crawls a batch of `(registrar, raw_response)` pairs, tallying stats.
    pub fn crawl_batch<'a, I>(&mut self, batch: I) -> (Vec<WhoisRecord>, CrawlStats)
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut records = Vec::new();
        let mut stats = CrawlStats::default();
        for (registrar, raw) in batch {
            match self.crawl(registrar, raw) {
                Ok(record) => {
                    stats.parsed += 1;
                    records.push(record);
                }
                Err(CrawlFailure::Blocked) => stats.blocked += 1,
                Err(CrawlFailure::ParseFailure) => stats.parse_failures += 1,
                Err(CrawlFailure::NoServer) => stats.no_server += 1,
            }
        }
        (records, stats)
    }

    /// [`WhoisCrawler::crawl_batch`] with per-outcome telemetry: one
    /// `whois.crawl.attempted` increment per domain and one of
    /// `whois.crawl.parsed` / `whois.crawl.blocked` / `whois.parse.failed`
    /// / `whois.crawl.no_server` for its outcome (see [`CRAWL_COUNTERS`]).
    /// Recording never influences the crawl.
    pub fn crawl_batch_recorded<'a, I>(
        &mut self,
        batch: I,
        recorder: &dyn Recorder,
    ) -> (Vec<WhoisRecord>, CrawlStats)
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut records = Vec::new();
        let mut stats = CrawlStats::default();
        for (registrar, raw) in batch {
            recorder.incr(CRAWL_COUNTERS[0]);
            match self.crawl(registrar, raw) {
                Ok(record) => {
                    stats.parsed += 1;
                    recorder.incr(CRAWL_COUNTERS[1]);
                    records.push(record);
                }
                Err(CrawlFailure::Blocked) => {
                    stats.blocked += 1;
                    recorder.incr(CRAWL_COUNTERS[2]);
                }
                Err(CrawlFailure::ParseFailure) => {
                    stats.parse_failures += 1;
                    recorder.incr(CRAWL_COUNTERS[3]);
                }
                Err(CrawlFailure::NoServer) => {
                    stats.no_server += 1;
                    recorder.incr(CRAWL_COUNTERS[4]);
                }
            }
        }
        (records, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(domain: &str) -> String {
        format!("Domain Name: {domain}\nRegistrar: R\nCreation Date: 2015-05-05\n")
    }

    #[test]
    fn open_servers_serve() {
        let mut crawler = WhoisCrawler::new();
        crawler.add_server("Open Inc.", ServerPolicy::open());
        let record = crawler.crawl("Open Inc.", &raw("a.com")).unwrap();
        assert_eq!(record.domain, "a.com");
    }

    #[test]
    fn blocking_registrars_lose_coverage() {
        let mut crawler = WhoisCrawler::new();
        crawler.add_server("Fortress LLC", ServerPolicy::blocking());
        assert_eq!(
            crawler.crawl("Fortress LLC", &raw("a.com")),
            Err(CrawlFailure::Blocked)
        );
    }

    #[test]
    fn rate_limits_bite_after_the_quota() {
        let mut crawler = WhoisCrawler::new();
        crawler.add_server("Limited", ServerPolicy::rate_limited(2));
        assert!(crawler.crawl("Limited", &raw("a.com")).is_ok());
        assert!(crawler.crawl("Limited", &raw("b.com")).is_ok());
        assert_eq!(
            crawler.crawl("Limited", &raw("c.com")),
            Err(CrawlFailure::Blocked)
        );
    }

    #[test]
    fn unmetered_crawl_equals_crawl_without_quotas() {
        let mut crawler = WhoisCrawler::new();
        crawler.add_server("Open Inc.", ServerPolicy::open());
        crawler.add_server("Fortress LLC", ServerPolicy::blocking());
        crawler.add_server("iTLD Registry", ServerPolicy::exotic_dialect());
        assert!(!crawler.is_rate_limited());
        for i in 0..200 {
            let raw = raw(&format!("d{i}.com"));
            for registrar in ["Open Inc.", "Fortress LLC", "iTLD Registry", "Ghost"] {
                let unmetered = crawler.crawl_unmetered(registrar, &raw);
                assert_eq!(crawler.crawl(registrar, &raw), unmetered, "{registrar} {i}");
            }
        }
        crawler.add_server("Limited", ServerPolicy::rate_limited(2));
        assert!(crawler.is_rate_limited());
    }

    #[test]
    fn unknown_registrar() {
        let mut crawler = WhoisCrawler::new();
        assert_eq!(
            crawler.crawl("Ghost", &raw("a.com")),
            Err(CrawlFailure::NoServer)
        );
    }

    #[test]
    fn exotic_dialects_mostly_fail_to_parse() {
        // The iTLD effect: with 98.9% unparseable responses, coverage
        // collapses to ≈1%.
        let mut crawler = WhoisCrawler::new();
        crawler.add_server("iTLD Registry", ServerPolicy::exotic_dialect());
        let batch: Vec<String> = (0..1000)
            .map(|i| raw(&format!("xn--d{i}.xn--fiqs8s")))
            .collect();
        let (records, stats) =
            crawler.crawl_batch(batch.iter().map(|r| ("iTLD Registry", r.as_str())));
        assert_eq!(records.len(), stats.parsed);
        assert!(
            stats.coverage() < 0.06,
            "itld coverage {}",
            stats.coverage()
        );
        assert!(stats.parse_failures > 900);
    }

    #[test]
    fn recorded_batch_matches_plain_and_counts_outcomes() {
        let registry = idnre_telemetry::Registry::new();
        for name in CRAWL_COUNTERS {
            registry.add(name, 0);
        }
        let batch = |crawler: &mut WhoisCrawler| {
            crawler.add_server("Open Inc.", ServerPolicy::open());
            crawler.add_server("Fortress LLC", ServerPolicy::blocking());
        };
        let raws: Vec<String> = (0..40).map(|i| raw(&format!("d{i}.com"))).collect();
        let assignments: Vec<(&str, &str)> = raws
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let registrar = match i % 4 {
                    0 | 1 => "Open Inc.",
                    2 => "Fortress LLC",
                    _ => "Ghost",
                };
                (registrar, r.as_str())
            })
            .collect();

        let mut plain = WhoisCrawler::new();
        batch(&mut plain);
        let (plain_records, plain_stats) = plain.crawl_batch(assignments.clone());

        let mut recorded = WhoisCrawler::new();
        batch(&mut recorded);
        let (records, stats) = recorded.crawl_batch_recorded(assignments, &registry);
        assert_eq!(records, plain_records);
        assert_eq!(stats, plain_stats);
        assert_eq!(registry.counter_value("whois.crawl.attempted"), 40);
        assert_eq!(
            registry.counter_value("whois.crawl.parsed"),
            stats.parsed as u64
        );
        assert_eq!(
            registry.counter_value("whois.crawl.blocked"),
            stats.blocked as u64
        );
        assert_eq!(
            registry.counter_value("whois.parse.failed"),
            stats.parse_failures as u64
        );
        assert_eq!(
            registry.counter_value("whois.crawl.no_server"),
            stats.no_server as u64
        );
    }

    #[test]
    fn mixed_crawl_reproduces_partial_coverage() {
        // Half the corpus under an open registrar, half under a blocking
        // one → coverage lands near 50%, the paper's overall rate.
        let mut crawler = WhoisCrawler::new();
        crawler.add_server("Open Inc.", ServerPolicy::open());
        crawler.add_server("Fortress LLC", ServerPolicy::blocking());
        let raws: Vec<String> = (0..200).map(|i| raw(&format!("d{i}.com"))).collect();
        let batch: Vec<(&str, &str)> = raws
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    if i % 2 == 0 {
                        "Open Inc."
                    } else {
                        "Fortress LLC"
                    },
                    r.as_str(),
                )
            })
            .collect();
        let (_, stats) = crawler.crawl_batch(batch);
        assert!(
            (0.40..=0.52).contains(&stats.coverage()),
            "coverage {}",
            stats.coverage()
        );
        assert_eq!(stats.blocked, 100);
    }
}
