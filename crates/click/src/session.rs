//! Session simulation: replaying the query stream against the engine
//! and the click model to produce Click Data.
//!
//! For every query event: retrieve the SERP (one batch search over the
//! distinct query strings), look up each result's hidden affinity to
//! the user's intent, let the click model decide, and record the
//! clicks. This is the "five months of Bing logs" step compressed into
//! a deterministic simulation.

use crate::log::{ClickLog, ClickLogBuilder};
use crate::model::ClickModel;
use websyn_common::{FxHashMap, PageId};
use websyn_engine::{SearchData, SearchEngine};
use websyn_synth::{affinity, QueryEvent, World};

/// Session simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// SERP depth shown to users.
    pub serp_size: usize,
    /// Retrieval pool the per-impression SERP is sampled from. Real
    /// result lists churn over months (index updates, freshness,
    /// personalization); sampling `serp_size` of the top `serp_pool`
    /// per impression reproduces that churn, which is what lets click
    /// sets grow beyond a single static SERP. Set equal to `serp_size`
    /// to disable.
    pub serp_pool: usize,
    /// The behavioural click model.
    pub model: ClickModel,
    /// RNG label (vary to get independent replicas of the same world).
    pub replica: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            serp_size: 10,
            serp_pool: 14,
            model: ClickModel::default(),
            replica: 0,
        }
    }
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total events replayed.
    pub events: u64,
    /// Events with an empty SERP.
    pub empty_serps: u64,
    /// Total clicks recorded.
    pub clicks: u64,
    /// Distinct query strings seen.
    pub distinct_queries: usize,
}

/// Replays `events` and aggregates clicks into a [`ClickLog`].
pub fn simulate_sessions(
    world: &World,
    engine: &SearchEngine,
    events: &[QueryEvent],
    config: &SessionConfig,
) -> (ClickLog, SessionStats) {
    let mut rng = world.seq().rng_indexed("click.sessions", config.replica);
    let mut builder = ClickLogBuilder::new();
    let mut stats = SessionStats::default();

    let pool_size = config.serp_pool.max(config.serp_size);
    // Retrieval pools depend only on the query string: search each
    // distinct text once, as one batch. The per-impression SERP is
    // sampled from the pool.
    let mut query_of: FxHashMap<&str, u32> = FxHashMap::default();
    let mut texts: Vec<&str> = Vec::new();
    for event in events {
        query_of.entry(event.text.as_str()).or_insert_with(|| {
            texts.push(event.text.as_str());
            texts.len() as u32 - 1
        });
    }
    let search = SearchData::collect(engine, &texts, pool_size);
    let mut pool: Vec<PageId> = Vec::with_capacity(pool_size);
    let mut serp = Vec::with_capacity(config.serp_size);

    for event in events {
        stats.events += 1;
        let q = builder.add_impression(&event.text);

        pool.clear();
        pool.extend(search.pages_for(query_of[event.text.as_str()], pool_size));
        if pool.is_empty() {
            stats.empty_serps += 1;
            continue;
        }

        sample_serp(&pool, config.serp_size, &mut serp, &mut rng);

        // Hidden relevance of each result to this user's intent.
        let relevance: Vec<f64> = serp
            .iter()
            .map(|&p| affinity(event.intent, &world.pages[p.as_usize()], world))
            .collect();

        for pos in config.model.simulate(&relevance, &mut rng) {
            builder.add_click(q, serp[pos]);
            stats.clicks += 1;
        }
    }

    let log = builder.build();
    stats.distinct_queries = log.n_queries();
    (log, stats)
}

/// Samples this impression's SERP from the retrieval pool: rank-biased
/// selection without replacement (weight `0.8^rank`), output in
/// original rank order. When the pool is no larger than the SERP, the
/// pool is shown as-is.
fn sample_serp<R: rand::Rng + ?Sized>(
    pool: &[PageId],
    serp_size: usize,
    out: &mut Vec<PageId>,
    rng: &mut R,
) {
    out.clear();
    if pool.len() <= serp_size {
        out.extend_from_slice(pool);
        return;
    }
    const RANK_DECAY: f64 = 0.8;
    let mut weights: Vec<f64> = (0..pool.len()).map(|i| RANK_DECAY.powi(i as i32)).collect();
    let mut chosen = vec![false; pool.len()];
    for _ in 0..serp_size {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            break;
        }
        let mut u = rng.gen_range(0.0..total);
        let mut pick = pool.len() - 1;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                pick = i;
                break;
            }
            u -= w;
        }
        chosen[pick] = true;
        weights[pick] = 0.0;
    }
    out.extend(
        pool.iter()
            .zip(chosen.iter())
            .filter_map(|(&p, &c)| c.then_some(p)),
    );
}

/// Builds a [`SearchEngine`] over a world's page universe.
pub fn engine_for_world(world: &World) -> SearchEngine {
    SearchEngine::from_docs(
        world
            .pages
            .iter()
            .map(|p| (p.id, p.title.as_str(), p.body.as_str())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use websyn_synth::{QueryStreamConfig, WorldConfig};

    fn setup(n_events: usize) -> (World, SearchEngine, Vec<QueryEvent>) {
        let mut world = World::build(&WorldConfig::small_movies(25, 33));
        let events =
            websyn_synth::queries::generate(&mut world, &QueryStreamConfig::small(n_events));
        let engine = engine_for_world(&world);
        (world, engine, events)
    }

    #[test]
    fn produces_clicks() {
        let (world, engine, events) = setup(4_000);
        let (log, stats) = simulate_sessions(&world, &engine, &events, &SessionConfig::default());
        assert_eq!(stats.events, 4_000);
        assert!(stats.clicks > 1_000, "too few clicks: {}", stats.clicks);
        assert!(log.n_tuples() > 0);
        assert_eq!(log.total_impressions(), 4_000);
        // Few queries should come back empty — the engine indexes the
        // surfaces users type (including planted nicknames).
        assert!(
            (stats.empty_serps as f64) < 0.05 * stats.events as f64,
            "too many empty SERPs: {}",
            stats.empty_serps
        );
    }

    #[test]
    fn deterministic() {
        let (world, engine, events) = setup(1_000);
        let (a, sa) = simulate_sessions(&world, &engine, &events, &SessionConfig::default());
        let (b, sb) = simulate_sessions(&world, &engine, &events, &SessionConfig::default());
        assert_eq!(sa, sb);
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn replicas_differ() {
        let (world, engine, events) = setup(1_000);
        let (_, s0) = simulate_sessions(&world, &engine, &events, &SessionConfig::default());
        let cfg1 = SessionConfig {
            replica: 1,
            ..Default::default()
        };
        let (_, s1) = simulate_sessions(&world, &engine, &events, &cfg1);
        assert_ne!(s0.clicks, s1.clicks, "replicas should differ in detail");
    }

    #[test]
    fn canonical_queries_click_own_pages() {
        let (world, engine, events) = setup(6_000);
        let (log, _) = simulate_sessions(&world, &engine, &events, &SessionConfig::default());
        // For the most popular entity: clicks from its canonical query
        // should land mostly on its own pages.
        let e0 = &world.entities[0];
        let Some(q) = log.query_id(&e0.canonical_norm) else {
            return; // head entity not queried canonically in this stream
        };
        let own_pages: std::collections::HashSet<u32> = world
            .pages
            .iter()
            .filter(|p| p.target == Some(websyn_synth::AliasTarget::Entity(e0.id)))
            .map(|p| p.id.raw())
            .collect();
        let (own, total) = log.clicks_of(q).iter().fold((0u64, 0u64), |(o, t), tup| {
            let n = u64::from(tup.n);
            if own_pages.contains(&tup.page.raw()) {
                (o + n, t + n)
            } else {
                (o, t + n)
            }
        });
        if total > 10 {
            assert!(
                own * 10 >= total * 7,
                "only {own}/{total} canonical clicks landed on own pages"
            );
        }
    }

    #[test]
    fn cascade_model_also_works() {
        let (world, engine, events) = setup(1_000);
        let cfg = SessionConfig {
            model: ClickModel::cascade(),
            ..Default::default()
        };
        let (log, stats) = simulate_sessions(&world, &engine, &events, &cfg);
        assert!(stats.clicks > 0);
        assert!(log.n_tuples() > 0);
    }

    #[test]
    fn empty_event_stream() {
        let (world, engine, _) = setup(10);
        let (log, stats) = simulate_sessions(&world, &engine, &[], &SessionConfig::default());
        assert_eq!(stats.events, 0);
        assert_eq!(log.n_queries(), 0);
    }
}
