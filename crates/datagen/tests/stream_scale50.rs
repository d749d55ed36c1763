//! Regression grid at the paper's reference denominator (scale 50): this
//! corpus volume is where bulk registrants first draw duplicate domains,
//! which desynchronizes any code that assumes one arena slot per record.
//! The scale-500 unit tests never hit that case, so this test pins shard
//! regeneration against the materialized corpus (records and artifacts) at
//! the exact config the committed EXPERIMENTS.md and BENCH_pipeline.json
//! are generated from, together with the `idnre-dataset/2` fingerprint of
//! that config.

use idnre_datagen::{
    dataset_fingerprint, generate_streamed, generate_with_columns, render_dataset, Ecosystem,
    EcosystemConfig,
};
use idnre_telemetry::{NoopRecorder, SpanCtx};
use idnre_whois::analytics::RegistrationAnalytics;
use idnre_whois::WhoisRecord;
use std::collections::HashMap;

/// The `idnre-dataset/2` fingerprint of the default scale-50 config.
const REFERENCE_FINGERPRINT: u64 = 0xa304_79ee_d80c_6bdf;

#[test]
fn streamed_matches_batch_at_reference_scale() {
    for threads in [1usize, idnre_par::default_threads()] {
        check(threads);
    }
}

fn check(threads: usize) {
    let config = EcosystemConfig {
        scale: 50,
        threads,
        ..EcosystemConfig::default()
    };
    let batch = Ecosystem::generate(&config);
    assert_eq!(
        dataset_fingerprint(&render_dataset(&batch)),
        REFERENCE_FINGERPRINT,
        "dataset fingerprint moved at {threads} threads"
    );
    let (eco, corpus) = generate_streamed(&config, 1024, &NoopRecorder);

    assert_eq!(corpus.idn_len(), batch.idn_registrations.len() as u64);
    let mut streamed = Vec::new();
    let mut start = 0u64;
    while start < corpus.idn_len() {
        let len = 1024.min(corpus.idn_len() - start) as usize;
        corpus.with_idn_shard(start, len, &mut |records| {
            streamed.extend_from_slice(records)
        });
        start += len as u64;
    }
    for (i, (s, b)) in streamed.iter().zip(&batch.idn_registrations).enumerate() {
        assert_eq!(s, b, "IDN record {i} diverged");
    }

    assert_eq!(eco.blacklist, batch.blacklist);
    assert_eq!(eco.whois, batch.whois);
    assert_eq!(eco.zones, batch.zones);
}

/// The WHOIS aggregate stored on the ecosystem is the one a serial fold of
/// `eco.whois` with `eco.blacklist` as the flag computes, whatever the
/// build and thread count. Scale 50 holds duplicate WHOIS domains.
#[test]
fn stored_whois_summary_matches_a_recomputation() {
    for threads in [1usize, 4] {
        let config = EcosystemConfig {
            scale: 50,
            threads,
            ..EcosystemConfig::default()
        };
        let batch = Ecosystem::generate(&config);
        let (streamed, _) = generate_streamed(&config, 1024, &NoopRecorder);
        for (build, eco) in [("batch", &batch), ("streamed", &streamed)] {
            let recomputed = RegistrationAnalytics::of_corpus(
                &eco.whois,
                |domain| eco.blacklist.is_malicious(domain),
                1,
            );
            assert_eq!(
                eco.whois_summary, recomputed,
                "{build} build at {threads} threads"
            );
            assert_eq!(eco.whois_summary.total(), eco.whois.len() as u64);
            assert!(!eco.whois_summary.flagged_creation_timeline().is_empty());
            // A map collected from the corpus keeps each domain's last record.
            let last: HashMap<&str, &WhoisRecord> =
                eco.whois.iter().map(|r| (r.domain.as_str(), r)).collect();
            assert!(last.len() < eco.whois.len(), "no duplicate WHOIS domains");
            let lookup = eco.whois_lookup();
            for (domain, record) in last {
                assert_eq!(lookup.get(domain), Some(record), "{domain}");
            }
        }
    }
}

/// Building the columns on the artifact walk leaves the ecosystem alone:
/// the materialized build that also returns columns renders the dataset
/// `Ecosystem::generate` renders.
#[test]
fn column_building_generation_keeps_the_fingerprint() {
    let config = EcosystemConfig {
        scale: 50,
        ..EcosystemConfig::default()
    };
    let (eco, corpus, columns) = generate_with_columns(&config, None, &NoopRecorder, SpanCtx::NONE);
    assert_eq!(
        dataset_fingerprint(&render_dataset(&eco)),
        dataset_fingerprint(&render_dataset(&Ecosystem::generate(&config)))
    );
    assert_eq!(
        dataset_fingerprint(&render_dataset(&eco)),
        REFERENCE_FINGERPRINT
    );
    assert_eq!(columns.len() as u64, corpus.idn_len());
}

/// The gram-table classifier returns the per-language oracle's language
/// and confidence bits for every distinct label of the scale-50 corpus.
#[test]
fn classifier_matches_its_oracle_on_every_corpus_label() {
    let config = EcosystemConfig {
        scale: 50,
        ..EcosystemConfig::default()
    };
    let (_, _, columns) = generate_with_columns(&config, Some(1024), &NoopRecorder, SpanCtx::NONE);
    assert!(columns.labels().len() > 10_000, "too few labels");
    for label in columns.labels().iter() {
        assert!(idnre_langid::oracle::agrees(label), "{label:?}");
    }
}
