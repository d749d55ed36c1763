//! Determinism of the struct-of-arrays corpus layout: building
//! [`CorpusColumns`] from the same corpus must yield identical symbol
//! ids, TLD ids, language ids and verdict bits for every worker count and
//! shard size — the interner's insertion order (and therefore every
//! `Symbol(u32)`) is part of the deterministic contract, not an artifact
//! of scheduling.

use idnre_analyze::SliceSource;
use idnre_arena::CorpusColumns;
use idnre_bench::passes;
use idnre_datagen::{generate_with_columns, Ecosystem, EcosystemConfig};
use idnre_telemetry::{NoopRecorder, SpanCtx};

fn build(eco: &Ecosystem, shard_size: usize, threads: usize) -> CorpusColumns {
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    passes::build_columns(
        &source,
        &eco.blacklist,
        shard_size,
        threads,
        &NoopRecorder,
        SpanCtx::NONE,
    )
}

fn assert_identical(a: &CorpusColumns, b: &CorpusColumns, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record counts differ");
    assert_eq!(
        a.labels().len(),
        b.labels().len(),
        "{what}: distinct label counts differ"
    );
    // Interner determinism: same corpus → same arena, in the same order,
    // so every symbol id means the same string in both builds.
    assert!(
        a.labels().iter().eq(b.labels().iter()),
        "{what}: label arenas diverged"
    );
    assert!(
        a.tlds().iter().eq(b.tlds().iter()),
        "{what}: TLD arenas diverged"
    );
    for i in 0..a.len() {
        assert_eq!(a.sld_symbol(i), b.sld_symbol(i), "{what}: symbol at {i}");
        assert_eq!(a.tld_id(i), b.tld_id(i), "{what}: tld id at {i}");
        assert_eq!(a.lang_id(i), b.lang_id(i), "{what}: lang id at {i}");
        assert_eq!(
            a.is_malicious(i),
            b.is_malicious(i),
            "{what}: malicious bit at {i}"
        );
        assert_eq!(
            a.is_organic(i),
            b.is_organic(i),
            "{what}: organic bit at {i}"
        );
        assert_eq!(
            a.blacklist_bits(i),
            b.blacklist_bits(i),
            "{what}: verdict bits at {i}"
        );
    }
}

/// Same corpus → same columns, for every (threads, shard_size) pair the
/// report-byte grid exercises. The thread count only parallelizes the
/// per-distinct-label language classification; the shard size only bounds
/// how many records are pushed per callback.
#[test]
fn columns_are_identical_across_threads_and_shards() {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads: 4,
        ..EcosystemConfig::default()
    });
    let reference = build(&eco, 1024, 4);
    assert!(reference.len() > 500, "corpus too small to be meaningful");
    assert!(reference.labels().len() > 50);
    for threads in [1usize, 2, 8] {
        for shard_size in [64usize, 1024] {
            let other = build(&eco, shard_size, threads);
            assert_identical(
                &reference,
                &other,
                &format!("threads={threads} shard_size={shard_size}"),
            );
        }
    }
}

/// The columns the generator builds on its artifact walk equal an overlay
/// build's over the materialized corpus, for the batch and the streamed
/// generator, every thread count and every shard size: the walk's shard
/// order, not its scheduling, decides every symbol.
#[test]
fn generator_columns_equal_an_overlay_build() {
    let config = |threads| EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads,
        ..EcosystemConfig::default()
    };
    let eco = Ecosystem::generate(&config(4));
    let reference = build(&eco, 1024, 4);
    for threads in [1usize, 4] {
        let (_, _, batch) =
            generate_with_columns(&config(threads), None, &NoopRecorder, SpanCtx::NONE);
        assert_identical(&reference, &batch, &format!("batch threads={threads}"));
        for shard_size in [1usize, 64, 1024] {
            let (_, _, streamed) = generate_with_columns(
                &config(threads),
                Some(shard_size),
                &NoopRecorder,
                SpanCtx::NONE,
            );
            assert_identical(
                &reference,
                &streamed,
                &format!("streamed threads={threads} shard_size={shard_size}"),
            );
        }
    }
}
