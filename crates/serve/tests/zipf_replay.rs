//! A seeded Zipfian query log replayed over pipelined keep-alive HTTP
//! connections against a live server, each request timed at the client.
//!
//! The replay holds the serving path to its accounting: every response
//! equals direct segmentation, the result cache absorbs the Zipfian
//! head (`/stats` hit rate above one half), every stage histogram on
//! `/metrics` is well-formed with ordered percentiles, the cache-lookup
//! stage saw the traffic, and the server's summed stage time fits
//! inside the summed end-to-end latency the clients observed — each
//! request's stage spans are disjoint slices of its own latency window,
//! so a stage timed twice, or outside the request, breaks the bound.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use websyn_common::{EntityId, SeedSequence, Zipf};
use websyn_core::{EntityMatcher, FuzzyConfig};
use websyn_serve::http::{percent_encode, read_response, spans_json};
use websyn_serve::{Engine, Server, ServerConfig};
use websyn_text::double_middle_char;

const DICT_SIZE: usize = 500;
const DISTINCT: usize = 200;
const READS: usize = 2_000;
const CONNECTIONS: usize = 4;
const PIPELINE_DEPTH: usize = 4;
const CACHE_CAPACITY: usize = 256;
const ZIPF_S: f64 = 1.0;

/// Product-style surfaces (`"<brand> <series> <n>"`), all distinct.
fn dictionary() -> Vec<(String, EntityId)> {
    const BRANDS: [&str; 8] = [
        "canon",
        "nikon",
        "sony",
        "pentax",
        "olympus",
        "fujifilm",
        "leica",
        "panasonic",
    ];
    const SERIES: [&str; 5] = ["eos", "coolpix", "cybershot", "lumix", "finepix"];
    (0..DICT_SIZE)
        .map(|i| {
            let surface = format!(
                "{} {} {}",
                BRANDS[i % BRANDS.len()],
                SERIES[i / BRANDS.len() % SERIES.len()],
                100 + i
            );
            (surface, EntityId::new(i as u32))
        })
        .collect()
}

/// The distinct query pool, rank 0 = most popular. A quarter of the
/// ranks carry a misspelled mention, so every such miss takes the
/// fuzzy path.
fn query_pool(dictionary: &[(String, EntityId)]) -> Vec<String> {
    (0..DISTINCT)
        .map(|rank| {
            let surface = &dictionary[(rank * 7919) % dictionary.len()].0;
            let mention = if rank % 4 == 3 {
                double_middle_char(surface)
            } else {
                surface.clone()
            };
            match rank % 3 {
                0 => format!("{mention} near san francisco"),
                1 => format!("best price for {mention}"),
                _ => format!("{mention} reviews and deals"),
            }
        })
        .collect()
}

/// Replays `ranks` on one keep-alive connection with up to
/// [`PIPELINE_DEPTH`] requests in flight. Returns the summed
/// client-observed latency (each request's send → response read, µs)
/// and the number of responses that differ from `golden`.
fn replay(
    addr: SocketAddr,
    ranks: &[usize],
    requests: &[String],
    golden: &[String],
) -> (u64, usize) {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut conn = conn;
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let (mut total_us, mut mismatches) = (0u64, 0usize);
    let mut drain = |in_flight: &mut VecDeque<(usize, Instant)>| {
        let (rank, sent) = in_flight.pop_front().expect("a request in flight");
        let (status, body) = read_response(&mut reader).expect("response");
        total_us += sent.elapsed().as_micros() as u64;
        if status != 200 || body != golden[rank] {
            mismatches += 1;
        }
    };
    for &rank in ranks {
        if in_flight.len() >= PIPELINE_DEPTH {
            drain(&mut in_flight);
        }
        conn.write_all(requests[rank].as_bytes()).expect("send");
        in_flight.push_back((rank, Instant::now()));
    }
    while !in_flight.is_empty() {
        drain(&mut in_flight);
    }
    (total_us, mismatches)
}

/// `GET path` on a fresh connection, timed at the client: `(body, µs)`.
fn timed_get(addr: SocketAddr, path: &str) -> (String, u64) {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("send");
    let (status, body) = read_response(&mut BufReader::new(conn)).expect("response");
    assert_eq!(status, 200, "{path}: {body}");
    (body, started.elapsed().as_micros() as u64)
}

/// The value of `"key":N` in a flat JSON object.
fn json_number(json: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let at = json.find(&tag).unwrap_or_else(|| panic!("{key} in {json}")) + tag.len();
    json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect::<String>()
        .parse()
        .expect("number")
}

/// One stage of `websyn_stage_duration_us` as exposed on `/metrics`.
#[derive(Default)]
struct Stage {
    /// `(le bound, cumulative count)` in exposition order, `+Inf` last.
    buckets: Vec<(f64, u64)>,
    sum: u64,
    count: u64,
}

impl Stage {
    /// The smallest bucket bound holding at least `p` of the samples.
    fn percentile(&self, p: f64) -> f64 {
        let rank = (p * self.count as f64).ceil().max(1.0) as u64;
        self.buckets
            .iter()
            .find(|&&(_, cumulative)| cumulative >= rank)
            .map_or(f64::INFINITY, |&(le, _)| le)
    }
}

/// Collects every `websyn_stage_duration_us` series by stage.
fn stages(metrics: &str) -> BTreeMap<String, Stage> {
    let mut out: BTreeMap<String, Stage> = BTreeMap::new();
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let Some(rest) = line.strip_prefix("websyn_stage_duration_us_") else {
            continue;
        };
        let (series, value) = rest.rsplit_once(' ').expect("series value");
        let value: u64 = value.parse().expect("integer sample");
        let stage_at = series.find("stage=\"").expect("stage label") + "stage=\"".len();
        let name = &series[stage_at..stage_at + series[stage_at..].find('"').expect("quote")];
        let stage = out.entry(name.to_string()).or_default();
        if series.starts_with("bucket") {
            let le_at = series.find("le=\"").expect("le label") + "le=\"".len();
            let le = &series[le_at..le_at + series[le_at..].find('"').expect("quote")];
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("numeric le")
            };
            stage.buckets.push((le, value));
        } else if series.starts_with("sum") {
            stage.sum = value;
        } else if series.starts_with("count") {
            stage.count = value;
        }
    }
    out
}

#[test]
fn zipf_replay_over_pipelined_keep_alive_http_holds_the_serving_gates() {
    let dictionary = dictionary();
    let matcher =
        Arc::new(EntityMatcher::from_pairs(dictionary.clone()).with_fuzzy(FuzzyConfig::default()));
    let pool = query_pool(&dictionary);
    let golden: Vec<String> = pool
        .iter()
        .map(|q| spans_json(&matcher.segment(q)))
        .collect();
    let requests: Vec<String> = pool
        .iter()
        .map(|q| format!("GET /match?q={} HTTP/1.1\r\n\r\n", percent_encode(q)))
        .collect();
    let zipf = Zipf::new(DISTINCT, ZIPF_S).expect("zipf params");
    let mut rng = SeedSequence::new(42).rng("zipf_replay");
    let stream: Vec<usize> = (0..READS).map(|_| zipf.sample(&mut rng)).collect();

    let engine = Arc::new(
        Engine::builder(matcher)
            .cache_shards(8)
            .cache_capacity(CACHE_CAPACITY)
            .build(),
    );
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig::builder().workers(2).build(),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let results: Vec<(u64, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .chunks(READS.div_ceil(CONNECTIONS))
            .map(|ranks| {
                let (requests, golden) = (&requests, &golden);
                scope.spawn(move || replay(addr, ranks, requests, golden))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let mismatches: usize = results.iter().map(|&(_, m)| m).sum();
    assert_eq!(
        mismatches, 0,
        "responses differing from direct segmentation"
    );

    // The scrapes are requests too: their parse (and /stats' write)
    // stages land in the histograms, so their client time joins the
    // end-to-end total.
    let (stats, stats_us) = timed_get(addr, "/stats");
    let (metrics, metrics_us) = timed_get(addr, "/metrics");
    let client_us: u64 = results.iter().map(|&(us, _)| us).sum::<u64>() + stats_us + metrics_us;

    let hit_rate = json_number(&stats, "hit_rate");
    assert!(
        hit_rate > 0.5,
        "/stats hit rate {hit_rate} on a Zipfian log"
    );
    assert_eq!(
        json_number(&stats, "hits") + json_number(&stats, "misses"),
        READS as f64,
        "every read probed once"
    );

    let stages = stages(&metrics);
    let names: Vec<&str> = engine
        .metrics()
        .stages()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(stages.len(), names.len(), "one exposition per stage");
    let mut stage_us = 0u64;
    for name in names {
        let stage = stages
            .get(name)
            .unwrap_or_else(|| panic!("stage {name} missing"));
        assert!(
            stage
                .buckets
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "{name}: buckets must be cumulative in bound order"
        );
        assert_eq!(
            stage.buckets.last().map(|b| b.1),
            Some(stage.count),
            "{name}"
        );
        let (p50, p99) = (stage.percentile(0.50), stage.percentile(0.99));
        assert!(p50 <= p99, "{name}: p50 {p50} > p99 {p99}");
        stage_us += stage.sum;
    }
    assert!(
        stages["cache_lookup"].count > 0,
        "cache_lookup saw no traffic: the breakdown is detached"
    );
    assert!(
        stage_us <= client_us,
        "stage accounting broken: Σ stage sums {stage_us}µs exceed the \
         client-observed end-to-end total {client_us}µs"
    );
    server.shutdown();
}
