//! The keyed planner: the one generator behind every dataset.
//!
//! The plan (stages 1–5: bulk and ordinary registrations, blacklist feeds,
//! attack injection, the non-IDN sample) keeps only what decides the
//! corpus — dedup survival, blacklist mutations, injected attacks — as a
//! `Recipe` table of a few bytes per record. Every record's randomness is
//! a pure function of `(seed, stage, record index)`, so the [`KeyedCorpus`]
//! regenerates record `k` byte-identically on demand, in any order, from
//! any thread. The artifact walk (stages 6–9) then derives WHOIS, pDNS,
//! certificates and zones shard by shard: over slices of the populations,
//! each regenerated once into its final vector, for [`Ecosystem::generate`];
//! over regenerated shards for [`generate_streamed`], whose peak residency
//! is `shard_size × workers`, tracked by a shared [`Gauge`] and reported as
//! the `datagen.peak_resident_records` gauge (level + peak).

use crate::attacks::{self, AttackDomain};
use crate::brands::BrandList;
use crate::config::{EcosystemConfig, TABLE_I};
use crate::ecosystem::{
    build_non_idn, draw_idn_domain, finish_idn, ns_record_for, prepare_attack_registration,
    sample_traffic, whois_record_for, Ecosystem, ATTACK_CHANNELS, ORDINARY_ATTEMPTS,
};
use crate::labels;
use crate::registration::{
    sample_registrant, themed_label, DomainRegistration, MaliciousKind, BULK_REGISTRANTS,
};
use idnre_arena::{Interner, Symbol};
use idnre_blacklist::{BlacklistSet, Source};
use idnre_certs::Certificate;
use idnre_langid::Language;
use idnre_pdns::{DomainAggregate, PdnsStore, PopulationClass};
use idnre_rng::{Key, StageId};
use idnre_telemetry::{Gauge, Recorder, SpanCtx};
use idnre_whois::{Date, WhoisRecord};
use idnre_zonefile::{ResourceRecord, Zone};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Gauge name of the peak-residency level.
pub const PEAK_RESIDENT_RECORDS: &str = "datagen.peak_resident_records";

/// How one IDN record regenerates: which keyed stream to replay and (for
/// ordinary registrations) which retry-ladder rung won the dedup race.
/// Twelve bytes per record instead of a full [`DomainRegistration`].
#[derive(Debug, Clone, Copy)]
enum Recipe {
    /// Bulk job `index` of `registrant`'s portfolio.
    Bulk { registrant: u32, index: u32 },
    /// Ordinary record `index` of TLD spec `spec`, surviving at `attempt`.
    Ordinary { spec: u8, index: u32, attempt: u8 },
    /// Attack `index` of channel `kind` (0 homograph, 1 type-1, 2 type-2).
    Attack { kind: u8, index: u32 },
}

/// The compact keyed plan: enough to regenerate any corpus record
/// byte-identically, without holding any records.
#[derive(Debug)]
pub struct KeyedCorpus {
    config: EcosystemConfig,
    /// Attack ground-truth lists, indexed by [`Recipe::Attack`] recipes.
    attacks: [Vec<AttackDomain>; 3],
    idn_recipes: Vec<Recipe>,
    /// Stage-3 blacklist mutations: IDN corpus index → (kind, created).
    overrides: HashMap<u64, (MaliciousKind, Date)>,
    /// Per-spec non-IDN population spans: `(global start, count)`.
    non_idn_spans: Vec<(u64, u64)>,
    gauge: Arc<Gauge>,
}

impl KeyedCorpus {
    /// Records in the IDN population.
    pub fn idn_len(&self) -> u64 {
        self.idn_recipes.len() as u64
    }

    /// Records in the non-IDN population.
    pub fn non_idn_len(&self) -> u64 {
        self.non_idn_spans
            .last()
            .map_or(0, |&(start, count)| start + count)
    }

    /// The residency gauge shared by every shard this corpus
    /// materializes: how many registration records are resident across
    /// all worker threads right now, with a high-water mark.
    pub fn gauge(&self) -> &Gauge {
        &self.gauge
    }

    /// Materializes IDN records `[start, start + len)` and calls `f` once
    /// with the slice. Residency is gauge-tracked for the call's duration.
    pub fn with_idn_shard(&self, start: u64, len: usize, f: &mut dyn FnMut(&[DomainRegistration])) {
        self.gauge.add(len as u64);
        let records: Vec<DomainRegistration> = (start..start + len as u64)
            .map(|i| self.regen_idn(i))
            .collect();
        f(&records);
        drop(records);
        self.gauge.sub(len as u64);
    }

    /// Non-IDN counterpart of [`KeyedCorpus::with_idn_shard`].
    pub fn with_non_idn_shard(
        &self,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration]),
    ) {
        self.gauge.add(len as u64);
        let records: Vec<DomainRegistration> = (start..start + len as u64)
            .map(|i| self.regen_non_idn(i))
            .collect();
        f(&records);
        drop(records);
        self.gauge.sub(len as u64);
    }

    /// Regenerates a whole population into one vector, in index order,
    /// without touching the residency gauge: the materialized build.
    fn materialize(
        &self,
        len: u64,
        regen: fn(&Self, u64) -> DomainRegistration,
    ) -> Vec<DomainRegistration> {
        let indices: Vec<u64> = (0..len).collect();
        idnre_par::par_map(&indices, self.config.threads, |&i| regen(self, i))
    }

    /// The configuration this plan was generated under (the epoch overlay
    /// derives day-simulator keys from its seed and snapshot date).
    pub(crate) fn config(&self) -> &EcosystemConfig {
        &self.config
    }

    /// Regenerates IDN record `index` from its keyed stream.
    pub(crate) fn regen_idn(&self, index: u64) -> DomainRegistration {
        let root = Key::root(self.config.seed);
        let mut reg = match self.idn_recipes[index as usize] {
            Recipe::Bulk {
                registrant,
                index: i,
            } => {
                let (email, _, theme) = BULK_REGISTRANTS[registrant as usize];
                let mut rng = root
                    .stage(StageId::BulkRegistrations)
                    .derive(u64::from(registrant))
                    .record(u64::from(i))
                    .rng();
                let label = themed_label(&mut rng, theme);
                let label = format!("{label}{i}");
                let (domain, unicode) =
                    draw_idn_domain(&mut rng, &label, "com").expect("planned bulk record");
                finish_idn(
                    &mut rng,
                    &self.config,
                    domain,
                    unicode,
                    Language::Chinese,
                    "com",
                    Some(email.to_string()),
                )
            }
            Recipe::Ordinary {
                spec,
                index: i,
                attempt,
            } => {
                let tld = TABLE_I[spec as usize].tld;
                let record_key = root
                    .stage(StageId::OrdinaryRegistrations)
                    .derive(u64::from(spec))
                    .record(u64::from(i));
                let mut meta = record_key.rng();
                let language = labels::sample_language(&mut meta);
                let mut label = labels::generate_label(&mut meta, language);
                let (email, _) = sample_registrant(&mut meta, u64::from(i));
                // Replay the suffix growth of every losing rung before the
                // winning one: the label accumulates across the ladder.
                for a in 1..u64::from(attempt) {
                    let mut rung = record_key.derive(a + 1).rng();
                    label.push_str(&rung.gen_range(2..1000u32).to_string());
                }
                let mut rng = record_key.derive(u64::from(attempt) + 1).rng();
                if attempt > 0 {
                    label.push_str(&rng.gen_range(2..1000u32).to_string());
                }
                let (domain, unicode) =
                    draw_idn_domain(&mut rng, &label, tld).expect("planned ordinary record");
                finish_idn(
                    &mut rng,
                    &self.config,
                    domain,
                    unicode,
                    language,
                    tld,
                    email,
                )
            }
            Recipe::Attack { kind, index: i } => {
                let (malicious_kind, per_mille) = ATTACK_CHANNELS[kind as usize];
                let mut rng = root
                    .stage(StageId::AttackInjection)
                    .derive(u64::from(kind))
                    .record(u64::from(i))
                    .rng();
                let (reg, _, _) = prepare_attack_registration(
                    &mut rng,
                    &self.config,
                    &self.attacks[kind as usize][i as usize],
                    malicious_kind,
                    per_mille,
                );
                reg
            }
        };
        if let Some(&(kind, created)) = self.overrides.get(&index) {
            reg.malicious = Some(kind);
            reg.created = created;
        }
        reg
    }

    /// Regenerates non-IDN record `index` from its keyed stream.
    fn regen_non_idn(&self, index: u64) -> DomainRegistration {
        let (spec_idx, start) = self
            .non_idn_spans
            .iter()
            .enumerate()
            .rev()
            .find(|&(_, &(start, _))| start <= index)
            .map(|(s, &(start, _))| (s, start))
            .expect("non-IDN index in range");
        let i = index - start;
        let mut rng = Key::root(self.config.seed)
            .stage(StageId::NonIdnSample)
            .derive(spec_idx as u64)
            .record(i)
            .rng();
        build_non_idn(&mut rng, &self.config, i, TABLE_I[spec_idx].tld)
    }
}

/// Evenly sized `(start, len)` shard spans covering `total` records.
fn shard_spans(total: u64, shard_size: usize) -> Vec<(u64, usize)> {
    let shard_size = shard_size.max(1);
    let mut spans = Vec::new();
    let mut start = 0u64;
    while start < total {
        let len = (total - start).min(shard_size as u64) as usize;
        spans.push((start, len));
        start += len as u64;
    }
    spans
}

/// Streamed generation: produces an [`Ecosystem`] whose registration
/// vectors are **empty** (artifacts — WHOIS, pDNS, certificates,
/// blacklist, zones — are fully populated and byte-identical to
/// [`Ecosystem::generate`]) plus the [`KeyedCorpus`] that regenerates any
/// registration shard on demand.
pub fn generate_streamed(
    config: &EcosystemConfig,
    shard_size: usize,
    recorder: &dyn Recorder,
) -> (Ecosystem, KeyedCorpus) {
    generate_streamed_traced(config, shard_size, recorder, SpanCtx::NONE)
}

/// Like [`generate_streamed`], parenting the plan/artifact stage spans
/// under `parent` in the span tree.
pub fn generate_streamed_traced(
    config: &EcosystemConfig,
    shard_size: usize,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (Ecosystem, KeyedCorpus) {
    generate_keyed(config, Some(shard_size), recorder, parent)
}

/// The keyed plan (stages 1–5): settles dedup, blacklist feeds and attack
/// injection from domain-construction draws alone and compacts the
/// survivors into recipes. Records the sibling spans
/// `datagen.{bulk_registrations,ordinary_registrations,stream.plan}` (stages
/// 1, 2 and 3–5); none nests in another, so their sum counts no time twice.
fn plan(
    config: &EcosystemConfig,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (KeyedCorpus, BrandList, BlacklistSet) {
    let root = Key::root(config.seed);
    let threads = config.threads;
    let brands = BrandList::with_size(config.brand_count);

    // Stage 1: bulk registrations (no cross-record dedup, so every
    // surviving job becomes a recipe).
    let mut span = recorder.span_at("datagen.bulk_registrations", parent, 0);
    let bulk_key = root.stage(StageId::BulkRegistrations);
    let mut bulk_jobs: Vec<(u32, crate::registration::BulkTheme, u32)> = Vec::new();
    for (registrant, &(_, declared, theme)) in BULK_REGISTRANTS.iter().enumerate() {
        let n = (u64::from(declared) / config.scale).max(1);
        for i in 0..n {
            bulk_jobs.push((registrant as u32, theme, i as u32));
        }
    }
    let bulk_domains = idnre_par::par_map(&bulk_jobs, threads, |&(registrant, theme, i)| {
        let mut rng = bulk_key
            .derive(u64::from(registrant))
            .record(u64::from(i))
            .rng();
        let label = themed_label(&mut rng, theme);
        draw_idn_domain(&mut rng, &format!("{label}{i}"), "com").map(|(domain, _)| domain)
    });
    let mut idn_recipes: Vec<Recipe> = Vec::new();
    // One interner doubles as the dedup set and the domain table; the
    // per-record `symbols` column maps recipe index → arena slot so stage 3
    // can resolve a candidate's domain without a second Vec<String> copy of
    // the corpus. (Bulk keeps duplicate domains as distinct records, so
    // arena slots are NOT 1:1 with recipes and
    // `Symbol::from_index(recipe_idx)` would misresolve.)
    let mut seen = Interner::with_capacity(bulk_jobs.len() * 2);
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut tlds: Vec<&'static str> = Vec::new();
    for (&(registrant, _, i), domain) in bulk_jobs.iter().zip(bulk_domains) {
        if let Some(domain) = domain {
            idn_recipes.push(Recipe::Bulk {
                registrant,
                index: i,
            });
            symbols.push(seen.intern(&domain));
            tlds.push("com");
        }
    }
    span.add_records(idn_recipes.len() as u64);
    drop(span);

    // Stage 2: ordinary registrations — rung-0 domains planned in
    // parallel, later rungs derived lazily only when the sequential dedup
    // probe collides (the common case never re-rolls).
    let mut span = recorder.span_at("datagen.ordinary_registrations", parent, 1);
    let bulk_count = idn_recipes.len();
    let ordinary_key = root.stage(StageId::OrdinaryRegistrations);
    for (spec_idx, spec) in TABLE_I.iter().enumerate() {
        let n = config.scaled_idns(spec);
        let spec_key = ordinary_key.derive(spec_idx as u64);
        let indices: Vec<u64> = (0..n).collect();
        let ladders = idnre_par::par_map(&indices, threads, |&i| {
            let record_key = spec_key.record(i);
            let mut meta = record_key.rng();
            let language = labels::sample_language(&mut meta);
            let label = labels::generate_label(&mut meta, language);
            // The registrant draw follows the label on the meta stream, so
            // the domain-only plan can stop here.
            let mut rng = record_key.derive(1).rng();
            let rung0 = draw_idn_domain(&mut rng, &label, spec.tld).map(|(domain, _)| domain);
            (label, rung0)
        });
        for (i, (mut label, rung0)) in ladders.into_iter().enumerate() {
            let mut won = None;
            if let Some(domain) = rung0 {
                let (sym, fresh) = seen.intern_full(&domain);
                if fresh {
                    won = Some((0u8, sym));
                }
            }
            if won.is_none() {
                let record_key = spec_key.record(i as u64);
                for attempt in 1..ORDINARY_ATTEMPTS {
                    let mut rng = record_key.derive(attempt + 1).rng();
                    label.push_str(&rng.gen_range(2..1000u32).to_string());
                    let Some((domain, _)) = draw_idn_domain(&mut rng, &label, spec.tld) else {
                        continue;
                    };
                    let (sym, fresh) = seen.intern_full(&domain);
                    if fresh {
                        won = Some((attempt as u8, sym));
                        break;
                    }
                }
            }
            if let Some((attempt, sym)) = won {
                idn_recipes.push(Recipe::Ordinary {
                    spec: spec_idx as u8,
                    index: i as u32,
                    attempt,
                });
                symbols.push(sym);
                tlds.push(spec.tld);
            }
        }
    }
    span.add_records((idn_recipes.len() - bulk_count) as u64);
    drop(span);

    // Stage 3: blacklist assignment over the bulk+ordinary population,
    // against (domain, tld) metadata instead of records; flag mutations
    // become regeneration-time overrides. Each TLD spec plans in parallel
    // (their candidate sets are disjoint by TLD), then the plans apply in
    // spec order.
    let mut span = recorder.span_at("datagen.stream.plan", parent, 2);
    let mut blacklist = BlacklistSet::new();
    let mut overrides: HashMap<u64, (MaliciousKind, Date)> = HashMap::new();
    let blacklist_key = root.stage(StageId::Blacklist);
    let spec_indices: Vec<u64> = (0..TABLE_I.len() as u64).collect();
    let plans = idnre_par::par_map(&spec_indices, threads, |&spec_idx| {
        let spec = &TABLE_I[spec_idx as usize];
        let mut rng = blacklist_key.record(spec_idx).rng();
        let (vt, qihoo, baidu) = spec.declared_blacklisted;
        let scaled = |n: u64| -> usize { (n / config.scale.max(1)).max(u64::from(n > 0)) as usize };
        // Bulk+ordinary records all carry `malicious: None` at this
        // stage, so TLD equality is the whole candidate filter.
        let mut candidates: Vec<usize> = tlds
            .iter()
            .enumerate()
            .filter(|&(_, t)| *t == spec.tld)
            .map(|(i, _)| i)
            .collect();
        // Union structure: all of VirusTotal's finds, one third of
        // Qihoo's as unique (the rest overlap VT), and Baidu's handful
        // mostly unique — Table I's per-source totals behave this way.
        let n_vt = scaled(vt);
        let n_q = scaled(qihoo);
        let n_q_unique = n_q / 3;
        let n_b_unique = scaled(baidu).min(1) * u64::from(baidu > 0) as usize;
        let union = n_vt + n_q_unique + n_b_unique;
        let mut flags = Vec::new();
        for _ in 0..union.min(candidates.len()) {
            let idx = candidates.swap_remove(rng.gen_range(0..candidates.len()));
            let kind = if rng.gen_ratio(7, 10) {
                MaliciousKind::UndergroundBusiness
            } else {
                MaliciousKind::Other
            };
            let created =
                crate::registration::sample_malicious_creation_date(&mut rng, config.snapshot);
            flags.push((idx, kind, created));
        }
        // Per-source attribution: every flagged domain gets at least
        // one source, with the overlap block shared between VT and Qihoo.
        let q_overlap = n_q - n_q_unique;
        let mut inserts = Vec::new();
        for (k, &(idx, _, _)) in flags.iter().enumerate() {
            if k < n_vt {
                inserts.push((Source::VirusTotal, idx));
                if k >= n_vt.saturating_sub(q_overlap) {
                    inserts.push((Source::Qihoo360, idx));
                }
            } else if k < n_vt + n_q_unique {
                inserts.push((Source::Qihoo360, idx));
            } else {
                inserts.push((Source::Baidu, idx));
            }
        }
        (flags, inserts)
    });
    for (flags, inserts) in plans {
        for (idx, kind, created) in flags {
            overrides.insert(idx as u64, (kind, created));
        }
        for (source, idx) in inserts {
            blacklist.insert(source, seen.resolve(symbols[idx]));
        }
    }

    // Stage 4: attack populations + injection plan. The prepared records
    // are discarded here (recipes replay them on demand); only domains,
    // dedup survival and blacklist feed inserts matter now.
    let homograph_attacks = attacks::generate_homographs(
        root.stage(StageId::HomographAttacks),
        &brands,
        config.attack_scale,
        threads,
    );
    let semantic_attacks = attacks::generate_semantic_type1(
        root.stage(StageId::SemanticType1Attacks),
        &brands,
        config.attack_scale,
        threads,
    );
    let semantic2_attacks = attacks::generate_semantic_type2(
        root.stage(StageId::SemanticType2Attacks),
        config.attack_scale,
    );
    let inject_key = root.stage(StageId::AttackInjection);
    let attack_lists = [&homograph_attacks, &semantic_attacks, &semantic2_attacks];
    for (kind_word, (list, (kind, per_mille))) in
        attack_lists.into_iter().zip(ATTACK_CHANNELS).enumerate()
    {
        let key = inject_key.derive(kind_word as u64);
        let indices: Vec<u64> = (0..list.len() as u64).collect();
        let prepared = idnre_par::par_map(&indices, threads, |&i| {
            let mut rng = key.record(i).rng();
            let (reg, blacklisted, qihoo_too) =
                prepare_attack_registration(&mut rng, config, &list[i as usize], kind, per_mille);
            (reg.domain, blacklisted, qihoo_too)
        });
        for (i, (domain, blacklisted, qihoo_too)) in prepared.into_iter().enumerate() {
            if !seen.intern_full(&domain).1 {
                continue;
            }
            if blacklisted {
                blacklist.insert(Source::VirusTotal, &domain);
                if qihoo_too {
                    blacklist.insert(Source::Qihoo360, &domain);
                }
            }
            idn_recipes.push(Recipe::Attack {
                kind: kind_word as u8,
                index: i as u32,
            });
        }
    }

    // Stage 5: the non-IDN sample needs no planning at all — per-spec
    // counts are a pure function of the config.
    let mut non_idn_spans = Vec::new();
    let mut non_idn_start = 0u64;
    for spec in TABLE_I {
        let count = config.scaled_non_idn_sample(&spec);
        non_idn_spans.push((non_idn_start, count));
        non_idn_start += count;
    }

    let corpus = KeyedCorpus {
        config: config.clone(),
        attacks: [homograph_attacks, semantic_attacks, semantic2_attacks],
        idn_recipes,
        overrides,
        non_idn_spans,
        gauge: Arc::new(Gauge::new()),
    };
    span.add_records(corpus.idn_len() + corpus.non_idn_len());
    drop(span);
    (corpus, brands, blacklist)
}

/// Every dataset's generator, in three steps: the keyed [`plan`]; for a
/// materialized build (`shard_size == None`), one regeneration of each
/// population straight into its final vector; and the artifact walk
/// (stages 6–9), one fused traversal computing WHOIS, pDNS, certificates
/// and zone records per shard in parallel, applied sequentially in shard
/// order so every artifact lands in corpus order. A materialized build
/// walks slices of its vectors; a streamed build walks regenerated
/// `shard_size` shards and returns empty registration vectors. The
/// artifacts are the same for any shard size.
pub(crate) fn generate_keyed(
    config: &EcosystemConfig,
    shard_size: Option<usize>,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (Ecosystem, KeyedCorpus) {
    let (corpus, brands, blacklist) = plan(config, recorder, parent);
    // Materialization is timed inside the artifact span, where a streamed
    // build times its shard regeneration, so the two builds'
    // `datagen.stream.artifacts` walls compare like for like.
    let mut span = recorder.span_at("datagen.stream.artifacts", parent, 3);
    let materialized = shard_size.is_none();
    let (idn_registrations, non_idn_registrations) = if materialized {
        (
            corpus.materialize(corpus.idn_len(), KeyedCorpus::regen_idn),
            corpus.materialize(corpus.non_idn_len(), KeyedCorpus::regen_non_idn),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    // Slices cost nothing to hand out, so a materialized walk takes about
    // one shard per worker and population: the fewest buffers to merge.
    let shard_size =
        shard_size.unwrap_or_else(|| idn_registrations.len().div_ceil(config.threads.max(1)));
    let root = Key::root(config.seed);
    let snapshot_day = config.snapshot.day_number();
    let whois_key = root.stage(StageId::Whois);
    let pdns_key = root.stage(StageId::PdnsTraffic);
    let cert_key = root.stage(StageId::Certificates);
    let origins: Vec<_> = TABLE_I
        .iter()
        .filter_map(|spec| spec.tld.parse::<idnre_idna::DomainName>().ok())
        .collect();
    let origin_tlds: Vec<String> = origins.iter().map(|o| o.to_string()).collect();

    struct ShardArtifacts {
        whois: Vec<WhoisRecord>,
        aggregates: Vec<DomainAggregate>,
        certificates: Vec<(String, Certificate)>,
        zone_records: Vec<Vec<ResourceRecord>>,
        zone_matched: u64,
        zone_parse_skipped: u64,
    }

    let idn_len = corpus.idn_len();
    let shards: Vec<(bool, u64, usize)> = shard_spans(idn_len, shard_size)
        .into_iter()
        .map(|(start, len)| (true, start, len))
        .chain(
            shard_spans(corpus.non_idn_len(), shard_size)
                .into_iter()
                .map(|(start, len)| (false, start, len)),
        )
        .collect();
    let artifact_shards = idnre_par::par_map(&shards, config.threads, |&(is_idn, start, len)| {
        let mut out = ShardArtifacts {
            whois: Vec::new(),
            aggregates: Vec::new(),
            certificates: Vec::new(),
            zone_records: vec![Vec::new(); origin_tlds.len()],
            zone_matched: 0,
            zone_parse_skipped: 0,
        };
        let mut emit = |records: &[DomainRegistration]| {
            for (offset, reg) in records.iter().enumerate() {
                let index = start + offset as u64;
                // The pDNS/certificate streams are keyed by the chained
                // idn-then-non-idn enumeration; WHOIS covers IDNs only.
                let chained = if is_idn { index } else { idn_len + index };
                if is_idn {
                    if let Some(record) = whois_record_for(whois_key, index, reg) {
                        out.whois.push(record);
                    }
                }
                let class = if is_idn {
                    match reg.malicious {
                        Some(MaliciousKind::Homograph) => PopulationClass::Homographic,
                        Some(MaliciousKind::SemanticType1 | MaliciousKind::SemanticType2) => {
                            PopulationClass::SemanticType1
                        }
                        Some(_) => PopulationClass::MaliciousIdn,
                        None => PopulationClass::BenignIdn,
                    }
                } else {
                    PopulationClass::NonIdn
                };
                let mut rng = pdns_key.record(chained).rng();
                if let Some(aggregate) = sample_traffic(&mut rng, reg, class, snapshot_day) {
                    out.aggregates.push(aggregate);
                }
                // Each HTTPS host draws from its own stream keyed by chain
                // position, so issuance is independent of every other
                // record's HTTPS flag.
                if reg.https {
                    if let Some(hosting) = reg.hosting.as_ref() {
                        let mut rng = cert_key.record(chained).rng();
                        out.certificates.push((
                            reg.domain.clone(),
                            hosting.issue_certificate(&mut rng, &reg.domain, snapshot_day),
                        ));
                    }
                }
                if let Some(origin) = origin_tlds.iter().position(|tld| *tld == reg.tld) {
                    out.zone_matched += 1;
                    match ns_record_for(reg) {
                        Some(record) => out.zone_records[origin].push(record),
                        None => out.zone_parse_skipped += 1,
                    }
                }
            }
        };
        let (first, end) = (start as usize, start as usize + len);
        match (is_idn, materialized) {
            (true, true) => emit(&idn_registrations[first..end]),
            (false, true) => emit(&non_idn_registrations[first..end]),
            (true, false) => corpus.with_idn_shard(start, len, &mut emit),
            (false, false) => corpus.with_non_idn_shard(start, len, &mut emit),
        }
        out
    });

    let mut whois = Vec::new();
    let mut pdns = PdnsStore::new();
    let mut certificates = Vec::new();
    let mut zones: Vec<Zone> = origins.into_iter().map(Zone::new).collect();
    let mut zone_matched = 0u64;
    let mut zone_parse_skipped = 0u64;
    for shard in artifact_shards {
        whois.extend(shard.whois);
        for aggregate in shard.aggregates {
            pdns.insert_aggregate(aggregate);
        }
        certificates.extend(shard.certificates);
        for (zone, records) in zones.iter_mut().zip(shard.zone_records) {
            zone.records.extend(records);
        }
        zone_matched += shard.zone_matched;
        zone_parse_skipped += shard.zone_parse_skipped;
    }
    let total = idn_len + corpus.non_idn_len();
    span.add_records(
        whois.len() as u64
            + pdns.len() as u64
            + certificates.len() as u64
            + zones.iter().map(|z| z.records.len() as u64).sum::<u64>(),
    );
    drop(span);
    recorder.add(
        "datagen.zones.skipped",
        zone_parse_skipped + (total - zone_matched),
    );

    let [homograph_attacks, semantic_attacks, semantic2_attacks] = corpus.attacks.clone();
    let eco = Ecosystem {
        config: config.clone(),
        brands,
        idn_registrations,
        non_idn_registrations,
        homograph_attacks,
        semantic_attacks,
        semantic2_attacks,
        whois,
        pdns,
        certificates,
        blacklist,
        zones,
    };
    (eco, corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_telemetry::NoopRecorder;

    fn config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 500,
            attack_scale: 10,
            ..EcosystemConfig::default()
        }
    }

    fn collect_idn(corpus: &KeyedCorpus, shard_size: usize) -> Vec<DomainRegistration> {
        let mut out = Vec::new();
        for (start, len) in shard_spans(corpus.idn_len(), shard_size) {
            corpus.with_idn_shard(start, len, &mut |records| out.extend_from_slice(records));
        }
        out
    }

    fn collect_non_idn(corpus: &KeyedCorpus, shard_size: usize) -> Vec<DomainRegistration> {
        let mut out = Vec::new();
        for (start, len) in shard_spans(corpus.non_idn_len(), shard_size) {
            corpus.with_non_idn_shard(start, len, &mut |records| out.extend_from_slice(records));
        }
        out
    }

    // `Ecosystem::generate` materializes each population in one pass;
    // shard regeneration must reproduce it at any shard size.
    #[test]
    fn streamed_shards_reproduce_batch_records() {
        let config = config();
        let batch = Ecosystem::generate(&config);
        let (_, corpus) = generate_streamed(&config, 64, &NoopRecorder);
        assert_eq!(corpus.idn_len(), batch.idn_registrations.len() as u64);
        assert_eq!(
            corpus.non_idn_len(),
            batch.non_idn_registrations.len() as u64
        );
        assert_eq!(collect_idn(&corpus, 64), batch.idn_registrations);
        assert_eq!(collect_non_idn(&corpus, 64), batch.non_idn_registrations);
        // Shard size must not matter.
        assert_eq!(collect_idn(&corpus, 7), batch.idn_registrations);
    }

    #[test]
    fn streamed_artifacts_match_batch_artifacts() {
        let config = config();
        let batch = Ecosystem::generate(&config);
        let (eco, _) = generate_streamed(&config, 128, &NoopRecorder);
        assert_eq!(eco.whois, batch.whois);
        assert_eq!(eco.blacklist, batch.blacklist);
        assert_eq!(eco.certificates, batch.certificates);
        assert_eq!(eco.zones, batch.zones);
        assert_eq!(eco.pdns.len(), batch.pdns.len());
        for aggregate in eco.pdns.iter() {
            assert_eq!(
                Some(aggregate),
                batch.pdns.lookup(&aggregate.domain),
                "{}",
                aggregate.domain
            );
        }
        assert_eq!(eco.homograph_attacks, batch.homograph_attacks);
        assert_eq!(eco.semantic_attacks, batch.semantic_attacks);
        assert_eq!(eco.semantic2_attacks, batch.semantic2_attacks);
        assert!(eco.idn_registrations.is_empty());
    }

    #[test]
    fn residency_stays_bounded_by_shards_not_corpus() {
        let config = config();
        let (_, corpus) = generate_streamed(&config, 32, &NoopRecorder);
        // The artifact pass already ran with shard size 32.
        let corpus_size = corpus.idn_len() + corpus.non_idn_len();
        let bound = 32 * idnre_par::MAX_THREADS as u64;
        assert!(corpus_size > bound / 4, "corpus too small for the probe");
        assert!(
            corpus.gauge().peak() <= bound,
            "peak {} exceeds shard_size × workers {}",
            corpus.gauge().peak(),
            bound
        );
        assert!(corpus.gauge().peak() > 0);
    }

    #[test]
    fn single_record_shards_work() {
        let config = config();
        let (_, corpus) = generate_streamed(&config, 1024, &NoopRecorder);
        let full = collect_idn(&corpus, 1024);
        corpus.with_idn_shard(3, 1, &mut |records| {
            assert_eq!(records, &full[3..4]);
        });
    }
}
