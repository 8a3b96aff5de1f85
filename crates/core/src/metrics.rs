//! The evaluation measures of the paper's Section IV.
//!
//! | Measure | Paper definition |
//! | --- | --- |
//! | Precision | "# of true synonyms over all synonyms generated" |
//! | Weighted Precision | "Weighted by synonym frequency in query log" |
//! | Coverage Increase | "Percentage increase in coverage of queries" |
//! | Hit Ratio | "Percentage of entries producing at least 1 synonym" |
//! | Expansion Ratio | "Sum of synonyms and orig entries over orig entries" |
//!
//! Precision uses the synthetic world's exact oracle where the paper
//! used human judges.

use crate::data::MiningContext;
use crate::miner::MiningResult;
use crate::taxonomy::{classify, RelationCounts, TruthClass};
use std::fmt;
use websyn_common::FxHashSet;
use websyn_synth::World;

/// The full evaluation of one mining result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Entities in the input set ("Orig").
    pub n_entities: usize,
    /// Total mined synonyms ("Synonyms").
    pub n_synonyms: usize,
    /// Entities with ≥ 1 synonym ("Hits").
    pub hits: usize,
    /// `hits / n_entities`.
    pub hit_ratio: f64,
    /// `(n_synonyms + n_entities) / n_entities`.
    pub expansion_ratio: f64,
    /// Fraction of mined synonyms that are true synonyms.
    pub precision: f64,
    /// Precision with each synonym weighted by its query-log
    /// impressions.
    pub weighted_precision: f64,
    /// Query-log impressions matched by the canonical strings alone.
    pub original_coverage: u64,
    /// Additional impressions matched by mined synonyms (distinct
    /// queries counted once across entities).
    pub added_coverage: u64,
    /// Ground-truth class breakdown of all mined synonyms.
    pub breakdown: RelationCounts,
}

impl EvalReport {
    /// Coverage increase as a fraction: `added / original`
    /// (the paper reports this as a percentage, e.g. 1.2 → "120%").
    /// Zero when nothing was originally covered.
    pub fn coverage_increase(&self) -> f64 {
        if self.original_coverage == 0 {
            0.0
        } else {
            self.added_coverage as f64 / self.original_coverage as f64
        }
    }
}

impl fmt::Display for EvalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "orig={} hits={} ({:.0}%) synonyms={} expansion={:.0}% precision={:.3} \
             weighted={:.3} coverage+={:.0}% [{}]",
            self.n_entities,
            self.hits,
            self.hit_ratio * 100.0,
            self.n_synonyms,
            self.expansion_ratio * 100.0,
            self.precision,
            self.weighted_precision,
            self.coverage_increase() * 100.0,
            self.breakdown,
        )
    }
}

/// Evaluates a mining result against the world oracle and the click
/// log.
pub fn evaluate(result: &MiningResult, ctx: &MiningContext, world: &World) -> EvalReport {
    let n_entities = ctx.n_entities();
    let mut n_synonyms = 0usize;
    let mut hits = 0usize;
    let mut true_count = 0usize;
    let mut weight_total = 0u64;
    let mut weight_true = 0u64;
    let mut breakdown = RelationCounts::default();
    let mut covered_queries: FxHashSet<websyn_common::QueryId> = FxHashSet::default();

    for es in &result.per_entity {
        if !es.synonyms.is_empty() {
            hits += 1;
        }
        for syn in &es.synonyms {
            n_synonyms += 1;
            let class = classify(world, &syn.text, es.entity);
            breakdown.add(class);
            let weight = u64::from(ctx.log.impressions(syn.query));
            weight_total += weight;
            if class == TruthClass::Synonym {
                true_count += 1;
                weight_true += weight;
            }
            covered_queries.insert(syn.query);
        }
    }

    // Coverage: canonical strings vs. canonical + mined synonyms.
    let mut original_coverage = 0u64;
    let mut canonical_queries: FxHashSet<websyn_common::QueryId> = FxHashSet::default();
    for e in 0..n_entities {
        if let Some(q) = ctx.canonical_query(websyn_common::EntityId::from_usize(e)) {
            if canonical_queries.insert(q) {
                original_coverage += u64::from(ctx.log.impressions(q));
            }
        }
    }
    let added_coverage = covered_queries
        .iter()
        .filter(|q| !canonical_queries.contains(q))
        .map(|&q| u64::from(ctx.log.impressions(q)))
        .sum();

    EvalReport {
        n_entities,
        n_synonyms,
        hits,
        hit_ratio: ratio(hits, n_entities),
        expansion_ratio: if n_entities == 0 {
            0.0
        } else {
            (n_synonyms + n_entities) as f64 / n_entities as f64
        },
        precision: ratio(true_count, n_synonyms),
        weighted_precision: if weight_total == 0 {
            0.0
        } else {
            weight_true as f64 / weight_total as f64
        },
        original_coverage,
        added_coverage,
        breakdown,
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinerConfig;
    use crate::miner::SynonymMiner;
    use websyn_click::session::{engine_for_world, simulate_sessions};
    use websyn_click::SessionConfig;
    use websyn_engine::SearchData;
    use websyn_synth::{queries, QueryStreamConfig, WorldConfig};

    /// End-to-end small pipeline shared by the metric tests.
    fn pipeline() -> (World, MiningContext) {
        let mut world = World::build(&WorldConfig::small_movies(20, 99));
        let events = queries::generate(&mut world, &QueryStreamConfig::small(30_000));
        let engine = engine_for_world(&world);
        let (log, _) = simulate_sessions(&world, &engine, &events, &SessionConfig::default());
        let u_set: Vec<String> = world
            .entities
            .iter()
            .map(|e| e.canonical_norm.clone())
            .collect();
        let search = SearchData::collect(&engine, &u_set, 10);
        let n_pages = world.pages.len();
        let ctx = MiningContext::new(u_set, search, log, n_pages);
        (world, ctx)
    }

    #[test]
    fn end_to_end_metrics_are_sane() {
        let (world, ctx) = pipeline();
        let result = SynonymMiner::new(MinerConfig::default()).mine(&ctx);
        let report = evaluate(&result, &ctx, &world);
        assert_eq!(report.n_entities, 20);
        assert!(report.n_synonyms > 0, "nothing mined");
        assert!(report.hits > 10, "hits {}", report.hits);
        assert!((0.0..=1.0).contains(&report.precision));
        assert!((0.0..=1.0).contains(&report.weighted_precision));
        assert!(report.precision > 0.5, "precision collapsed: {report}");
        assert!(report.expansion_ratio >= 1.0);
        assert!(report.coverage_increase() > 0.0, "{report}");
        assert_eq!(report.breakdown.total(), report.n_synonyms);
    }

    #[test]
    fn tighter_icr_improves_precision() {
        let (world, ctx) = pipeline();
        let miner = SynonymMiner::new(MinerConfig {
            top_k: 10,
            ipc_threshold: 2,
            icr_threshold: 0.0,
            ..Default::default()
        });
        let scored = miner.score(&ctx);
        let loose = evaluate(
            &crate::miner::select_with(&ctx, &scored, 2, 0.0, miner.config),
            &ctx,
            &world,
        );
        let tight = evaluate(
            &crate::miner::select_with(&ctx, &scored, 2, 0.5, miner.config),
            &ctx,
            &world,
        );
        assert!(
            tight.precision >= loose.precision,
            "tight {} < loose {}",
            tight.precision,
            loose.precision
        );
        assert!(tight.n_synonyms <= loose.n_synonyms);
        // Hypernym leaks specifically should shrink.
        assert!(tight.breakdown.hypernym <= loose.breakdown.hypernym);
    }

    #[test]
    fn report_display_is_readable() {
        let (world, ctx) = pipeline();
        let result = SynonymMiner::default().mine(&ctx);
        let report = evaluate(&result, &ctx, &world);
        let text = report.to_string();
        assert!(text.contains("precision="));
        assert!(text.contains("hits="));
    }

    #[test]
    fn empty_result_reports_zeroes() {
        let (world, ctx) = pipeline();
        let result = MiningResult {
            per_entity: Vec::new(),
            config: MinerConfig::default(),
        };
        let report = evaluate(&result, &ctx, &world);
        assert_eq!(report.n_synonyms, 0);
        assert_eq!(report.hits, 0);
        assert_eq!(report.precision, 0.0);
        assert_eq!(report.added_coverage, 0);
    }
}
