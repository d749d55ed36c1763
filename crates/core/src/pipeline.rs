//! Abuse analysis: folds detector findings, WHOIS and blacklists into the
//! per-brand tables of Sections VI-C and VII-B (Tables XIII and XIV).

use crate::homograph::HomographFinding;
use crate::semantic::SemanticFinding;
use idnre_blacklist::BlacklistSet;
use idnre_whois::analytics::WhoisLookup;
use idnre_whois::WhoisRecord;
use std::collections::HashMap;

/// One row of a Table XIII/XIV-style report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrandAbuseRow {
    /// The targeted brand domain.
    pub brand: String,
    /// Number of abusive IDNs targeting it.
    pub idns: u64,
    /// How many were registered by the brand owner (protective).
    pub protective: u64,
}

/// Aggregated abuse analysis over a finding set.
#[derive(Debug, Clone)]
pub struct AbuseAnalysis {
    per_brand: HashMap<String, BrandAbuseRow>,
    total: u64,
    blacklisted: u64,
    protective: u64,
    personal_email: u64,
    with_whois: u64,
}

impl AbuseAnalysis {
    /// Analyzes homograph findings.
    pub fn from_homographs(
        findings: &[HomographFinding],
        whois: WhoisLookup<'_>,
        blacklist: &BlacklistSet,
    ) -> Self {
        Self::build(
            findings
                .iter()
                .map(|f| (f.domain.as_str(), f.brand.as_str())),
            whois,
            blacklist,
        )
    }

    /// Analyzes semantic findings.
    pub fn from_semantic(
        findings: &[SemanticFinding],
        whois: WhoisLookup<'_>,
        blacklist: &BlacklistSet,
    ) -> Self {
        Self::build(
            findings
                .iter()
                .map(|f| (f.domain.as_str(), f.brand.as_str())),
            whois,
            blacklist,
        )
    }

    fn build<'a, I>(findings: I, whois: WhoisLookup<'_>, blacklist: &BlacklistSet) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut per_brand: HashMap<String, BrandAbuseRow> = HashMap::new();
        let (mut total, mut blacklisted, mut protective_total) = (0u64, 0u64, 0u64);
        let (mut personal, mut with_whois) = (0u64, 0u64);
        for (domain, brand) in findings {
            total += 1;
            if blacklist.is_malicious(domain) {
                blacklisted += 1;
            }
            let record = whois.get(domain);
            let protective = record
                .map(|r| Self::is_protective(r, brand))
                .unwrap_or(false);
            if let Some(r) = record {
                with_whois += 1;
                if r.uses_personal_email() {
                    personal += 1;
                }
            }
            if protective {
                protective_total += 1;
            }
            let row = per_brand
                .entry(brand.to_string())
                .or_insert_with(|| BrandAbuseRow {
                    brand: brand.to_string(),
                    idns: 0,
                    protective: 0,
                });
            row.idns += 1;
            if protective {
                row.protective += 1;
            }
        }
        AbuseAnalysis {
            per_brand,
            total,
            blacklisted,
            protective: protective_total,
            personal_email: personal,
            with_whois,
        }
    }

    /// The paper's protective-registration test: the registrant email's
    /// domain is the brand domain (its own SLD).
    fn is_protective(record: &WhoisRecord, brand: &str) -> bool {
        let brand_sld = brand.split('.').next().unwrap_or(brand);
        record
            .registrant_email_domain()
            .map(|d| d.split('.').next().unwrap_or(d) == brand_sld)
            .unwrap_or(false)
    }

    /// Total findings.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Findings already on a blacklist.
    pub fn blacklisted(&self) -> u64 {
        self.blacklisted
    }

    /// Findings registered protectively by brand owners.
    pub fn protective(&self) -> u64 {
        self.protective
    }

    /// Findings whose WHOIS shows a personal (free-mail) registrant.
    pub fn personal_email(&self) -> u64 {
        self.personal_email
    }

    /// Findings with an obtainable WHOIS record.
    pub fn with_whois(&self) -> u64 {
        self.with_whois
    }

    /// Number of distinct targeted brands.
    pub fn targeted_brands(&self) -> usize {
        self.per_brand.len()
    }

    /// Top `k` brands by abusive-IDN count (Table XIII/XIV rows).
    pub fn top_brands(&self, k: usize) -> Vec<BrandAbuseRow> {
        let mut rows: Vec<BrandAbuseRow> = self.per_brand.values().cloned().collect();
        rows.sort_by(|a, b| b.idns.cmp(&a.idns).then_with(|| a.brand.cmp(&b.brand)));
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_blacklist::Source;
    use idnre_whois::analytics::RegistrationAnalytics;
    use idnre_whois::WhoisDialect;

    fn finding(domain: &str, brand: &str) -> HomographFinding {
        HomographFinding {
            domain: domain.to_string(),
            unicode: domain.to_string(),
            brand: brand.to_string(),
            ssim: 0.97,
        }
    }

    fn whois(domain: &str, email: Option<&str>) -> WhoisRecord {
        let mut r = WhoisRecord::new(domain, WhoisDialect::KeyValue);
        r.registrant_email = email.map(str::to_string);
        r
    }

    #[test]
    fn per_brand_rollup_and_protective_detection() {
        let findings = vec![
            finding("xn--a1.com", "google.com"),
            finding("xn--a2.com", "google.com"),
            finding("xn--b1.com", "apple.com"),
        ];
        let whois = vec![
            whois("xn--a1.com", Some("legal@google.com")),
            whois("xn--a2.com", Some("bulk@qq.com")),
        ];
        let mut blacklist = BlacklistSet::new();
        blacklist.insert(Source::VirusTotal, "xn--b1.com");

        let summary = RegistrationAnalytics::of_corpus(&whois, |_| false, 1);
        let analysis =
            AbuseAnalysis::from_homographs(&findings, summary.lookup(&whois), &blacklist);
        assert_eq!(analysis.total(), 3);
        assert_eq!(analysis.blacklisted(), 1);
        assert_eq!(analysis.protective(), 1);
        assert_eq!(analysis.personal_email(), 1);
        assert_eq!(analysis.with_whois(), 2);
        assert_eq!(analysis.targeted_brands(), 2);

        let top = analysis.top_brands(2);
        assert_eq!(top[0].brand, "google.com");
        assert_eq!(top[0].idns, 2);
        assert_eq!(top[0].protective, 1);
    }

    #[test]
    fn missing_whois_is_not_protective() {
        let findings = vec![finding("xn--x.com", "google.com")];
        let analysis =
            AbuseAnalysis::from_homographs(&findings, WhoisLookup::default(), &BlacklistSet::new());
        assert_eq!(analysis.protective(), 0);
        assert_eq!(analysis.with_whois(), 0);
    }

    #[test]
    fn works_for_semantic_findings() {
        use crate::semantic::{SemanticFinding, SemanticKind};
        let findings = vec![SemanticFinding {
            domain: "xn--58-hk2j.com".into(),
            unicode: "58汽车.com".into(),
            brand: "58.com".into(),
            kind: SemanticKind::Type1,
        }];
        let analysis =
            AbuseAnalysis::from_semantic(&findings, WhoisLookup::default(), &BlacklistSet::new());
        assert_eq!(analysis.total(), 1);
        assert_eq!(analysis.top_brands(1)[0].brand, "58.com");
    }
}
