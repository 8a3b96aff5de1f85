//! Cluster integration tests: the router + worker-process fleet
//! against real sockets and real child processes.
//!
//! The fleet is driven through the [`Cluster`] library API with
//! `worker_exe` pointed at the `websyn-cluster` binary (Cargo exposes
//! its path to integration tests), so these tests exercise the exact
//! spawn/handshake/supervise path the binaries use — only the router
//! and monitor run inside the test process.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use websyn_common::{EntityId, SeedSequence, Zipf};
use websyn_core::{EntityMatcher, FuzzyConfig};
use websyn_serve::cluster::{Cluster, ClusterConfig};
use websyn_serve::http::{percent_encode, read_response, spans_json};

/// The dictionary every test serves: enough surfaces to spread across
/// a 4-worker ring, plus fuzzy matching for misspelled traffic.
fn test_matcher() -> EntityMatcher {
    let mut pairs: Vec<(String, EntityId)> = vec![
        ("indy 4".into(), EntityId::new(0)),
        ("indiana jones 4".into(), EntityId::new(0)),
        ("madagascar 2".into(), EntityId::new(1)),
        ("canon eos 350d".into(), EntityId::new(2)),
        ("digital rebel xt".into(), EntityId::new(2)),
    ];
    for i in 0..40u32 {
        pairs.push((format!("test entity {i}"), EntityId::new(10 + i)));
    }
    EntityMatcher::from_pairs(
        pairs
            .iter()
            .map(|(s, id)| (s.as_str(), *id))
            .collect::<Vec<_>>(),
    )
    .with_fuzzy(FuzzyConfig::default())
}

/// Writes the test dictionary as a TSV artifact for worker processes;
/// the file is unique per test to keep parallel tests apart.
fn dict_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "websyn-cluster-test-{}-{tag}.tsv",
        std::process::id()
    ));
    std::fs::write(&path, test_matcher().to_tsv()).expect("write dict");
    path
}

fn start_cluster(tag: &str, workers: usize, replication: usize) -> (Cluster, PathBuf) {
    let dict = dict_file(tag);
    let cluster = Cluster::start(
        "127.0.0.1:0",
        ClusterConfig {
            workers,
            replication,
            dict: Some(dict.to_string_lossy().into_owned()),
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_websyn-cluster"))),
            probe_interval: Duration::from_millis(25),
            ..ClusterConfig::default()
        },
    )
    .expect("start cluster");
    (cluster, dict)
}

struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let conn = TcpStream::connect(addr).expect("connect router");
        let reader = BufReader::new(conn.try_clone().expect("clone"));
        Self { conn, reader }
    }

    fn get(&mut self, target: &str) -> (u16, String) {
        // One write per request: a formatted write would reach the
        // socket in pieces and stall on Nagle + delayed ACK.
        let request = format!("GET {target} HTTP/1.1\r\n\r\n");
        self.conn.write_all(request.as_bytes()).expect("send");
        read_response(&mut self.reader).expect("response")
    }

    fn ask(&mut self, query: &str) -> (u16, String) {
        self.get(&format!("/match?q={}", percent_encode(query)))
    }
}

/// A traffic mix touching every worker: exact hits, fuzzy hits,
/// misses, and odd encodings.
fn query_mix() -> Vec<String> {
    let mut queries = Vec::new();
    for i in 0..40u32 {
        queries.push(format!("test entity {i}"));
        queries.push(format!("looking for test entity {i} online"));
    }
    queries.extend(
        [
            "indy 4 near san fran",
            "cheapest cannon eos 350d deals", // fuzzy
            "madagasacr 2 tickets",           // fuzzy transposition
            "nothing matches here",
            "café indy 4", // multi-byte percent-encoding
            "",
        ]
        .map(String::from),
    );
    queries
}

#[test]
fn cluster_responses_match_a_single_engine_oracle() {
    let (cluster, dict) = start_cluster("oracle", 4, 2);
    let oracle = test_matcher();
    let mut client = Client::connect(cluster.addr());
    for query in query_mix() {
        let want = (200, spans_json(&oracle.segment(&query)));
        // Twice: the second answer exercises worker caches through the
        // router without changing the bytes.
        assert_eq!(client.ask(&query), want, "{query:?} uncached");
        assert_eq!(client.ask(&query), want, "{query:?} cached");
    }
    // Router-level request handling: the satellite route() semantics
    // hold through the proxy too.
    let golden = (200, spans_json(&oracle.segment("indy 4")));
    assert_eq!(client.get("/match?verbose=1&q=indy+4"), golden);
    assert_eq!(client.get("/match?q=a&q=b").0, 400, "duplicate q");
    assert_eq!(client.get("/frobnicate").0, 404);
    // Aggregated stats see the whole fleet.
    let (status, stats) = client.get("/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"workers\":4"), "{stats}");
    cluster.shutdown();
    let _ = std::fs::remove_file(dict);
}

#[test]
fn killing_a_worker_loses_no_client_requests() {
    let (cluster, dict) = start_cluster("kill", 3, 2);
    let oracle = test_matcher();
    let queries = query_mix();
    let mut client = Client::connect(cluster.addr());
    // Warm-up pass proves the fleet serves before the chaos.
    for query in queries.iter().take(10) {
        assert_eq!(client.ask(query).0, 200, "warm-up {query:?}");
    }

    cluster.kill_worker(1);
    // Every request from the kill to full recovery must succeed with
    // the oracle's exact bytes — the acceptance criterion.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut served = 0u32;
    'outage: loop {
        for query in &queries {
            let want = (200, spans_json(&oracle.segment(query)));
            assert_eq!(client.ask(query), want, "during outage: {query:?}");
            served += 1;
            // Recovery is the victim restarted *and* back in the ring;
            // right after the kill the fleet can still read healthy
            // because the monitor has not probed yet.
            if cluster.restarts() >= 1 && cluster.healthy_workers() == 3 {
                break 'outage;
            }
        }
        assert!(
            Instant::now() < deadline,
            "worker not restarted after {served} requests"
        );
    }
    assert!(cluster.wait_healthy(3, Duration::from_secs(20)));
    assert!(cluster.restarts() >= 1, "monitor must restart the victim");
    assert!(served > 0);
    // And the fleet still answers correctly after recovery.
    for query in queries.iter().take(10) {
        let want = (200, spans_json(&oracle.segment(query)));
        assert_eq!(client.ask(query), want, "after recovery: {query:?}");
    }
    cluster.shutdown();
    let _ = std::fs::remove_file(dict);
}

#[test]
fn rolling_restart_is_invisible_to_in_flight_traffic() {
    let (cluster, dict) = start_cluster("rolling", 3, 2);
    let queries = query_mix();
    let addr = cluster.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Background clients hammer the router for the whole rolling
    // rebuild; every response must be a 200 with oracle-exact bytes.
    let clients: Vec<_> = (0..3)
        .map(|offset| {
            let stop = Arc::clone(&stop);
            let queries = queries.clone();
            let oracle = test_matcher();
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = Client::connect(addr);
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    for query in queries.iter().skip(offset).step_by(3) {
                        let want = (200, spans_json(&oracle.segment(query)));
                        let got = client.ask(query);
                        if got != want {
                            return Err(format!(
                                "{query:?}: got {} {:?}",
                                got.0,
                                &got.1[..got.1.len().min(80)]
                            ));
                        }
                        served += 1;
                    }
                }
                Ok(served)
            })
        })
        .collect();

    // Let traffic establish, roll the whole fleet, let traffic settle.
    std::thread::sleep(Duration::from_millis(100));
    let swapped = cluster.rolling_restart().expect("rolling restart");
    assert_eq!(swapped, 3, "every worker swapped");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for handle in clients {
        total += handle
            .join()
            .expect("client thread")
            .expect("zero failed requests during the roll");
    }
    assert!(total > 0, "clients actually ran traffic");
    assert_eq!(cluster.healthy_workers(), 3, "fleet fully back");
    cluster.shutdown();
    let _ = std::fs::remove_file(dict);
}

#[test]
fn rolling_restart_onto_a_new_artifact_serves_the_new_dictionary() {
    let (cluster, dict) = start_cluster("artifact", 3, 2);
    let queries = query_mix();
    let addr = cluster.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // The new artifact is a superset of the old: every query in the
    // traffic mix answers byte-identically from either, so in-flight
    // responses stay oracle-exact even while the fleet serves a mix of
    // artifacts mid-roll.
    let new_dict = std::env::temp_dir().join(format!(
        "websyn-cluster-test-{}-artifact-new.tsv",
        std::process::id()
    ));
    let mut tsv = test_matcher().to_tsv();
    tsv.push_str("fresh artifact surface\t500\n");
    std::fs::write(&new_dict, &tsv).expect("write new dict");
    // The oracle loads exactly what workers load.
    let new_oracle = EntityMatcher::from_tsv(&tsv).expect("parse new dict");

    {
        let mut client = Client::connect(addr);
        assert_eq!(
            client.ask("fresh artifact surface"),
            (200, "{\"spans\":[]}".to_string()),
            "new surface must not resolve before the roll"
        );
    }

    // Background clients hammer the router across the whole roll;
    // every response must be a 200 with oracle-exact bytes.
    let clients: Vec<_> = (0..3)
        .map(|offset| {
            let stop = Arc::clone(&stop);
            let queries = queries.clone();
            let oracle = test_matcher();
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = Client::connect(addr);
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    for query in queries.iter().skip(offset).step_by(3) {
                        let want = (200, spans_json(&oracle.segment(query)));
                        let got = client.ask(query);
                        if got != want {
                            return Err(format!(
                                "{query:?}: got {} {:?}",
                                got.0,
                                &got.1[..got.1.len().min(80)]
                            ));
                        }
                        served += 1;
                    }
                }
                Ok(served)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let swapped = cluster
        .rolling_restart_with_dict(Some(new_dict.to_string_lossy().into_owned()))
        .expect("rolling restart with dict");
    assert_eq!(swapped, 3, "every worker swapped onto the new artifact");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for handle in clients {
        total += handle
            .join()
            .expect("client thread")
            .expect("zero failed requests during the artifact roll");
    }
    assert!(total > 0, "clients actually ran traffic");

    // The rolled fleet serves the new artifact's surface set, byte-for
    // byte what a single engine over the new artifact would answer.
    let mut client = Client::connect(addr);
    let want = (
        200,
        spans_json(&new_oracle.segment("fresh artifact surface")),
    );
    assert!(want.1.contains("\"entity\":500"), "oracle sanity");
    assert_eq!(client.ask("fresh artifact surface"), want);
    // Old surfaces still answer identically.
    for query in queries.iter().take(10) {
        let expect = (200, spans_json(&new_oracle.segment(query)));
        assert_eq!(client.ask(query), expect, "after artifact roll: {query:?}");
    }
    cluster.shutdown();
    let _ = std::fs::remove_file(dict);
    let _ = std::fs::remove_file(new_dict);
}

/// Hash partitioning aggregates the fleet's cache capacity: with
/// replication 1 every distinct query has one home worker, so a
/// working set three times one worker's cache thrashes a single
/// worker but fits a 4-worker fleet. Read through the router's
/// aggregated `/stats`, the hit rate must show both sides — at or
/// below 0.6 on one worker, at or above 0.9 on four — and every answer
/// must still be the single-process oracle's.
#[test]
fn fleet_hit_rate_proves_partitioned_cache_aggregation() {
    const DISTINCT: usize = 300;
    const CAPACITY: usize = 100;
    const READS: usize = 6_000;
    const CLIENTS: usize = 4;
    let oracle = test_matcher();
    let pool: Vec<String> = (0..DISTINCT)
        .map(|i| format!("looking for test entity {} listing {i}", i % 40))
        .collect();
    let golden: Vec<String> = pool
        .iter()
        .map(|q| spans_json(&oracle.segment(q)))
        .collect();
    let zipf = Zipf::new(DISTINCT, 0.4).expect("zipf params");
    let mut rng = SeedSequence::new(42).rng("fleet_hit_rate");
    let stream: Vec<usize> = (0..READS).map(|_| zipf.sample(&mut rng)).collect();

    let hit_rate = |workers: usize| -> f64 {
        let dict = dict_file(&format!("hit-rate-x{workers}"));
        let cluster = Cluster::start(
            "127.0.0.1:0",
            ClusterConfig {
                workers,
                replication: 1,
                dict: Some(dict.to_string_lossy().into_owned()),
                // One cache shard: each worker's capacity is one exact
                // LRU, so the bound measures partitioning alone.
                worker_args: ["--workers", "2", "--cache-shards", "1", "--cache-capacity"]
                    .iter()
                    .map(|a| a.to_string())
                    .chain([CAPACITY.to_string()])
                    .collect(),
                worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_websyn-cluster"))),
                probe_interval: Duration::from_millis(25),
                ..ClusterConfig::default()
            },
        )
        .expect("start cluster");
        std::thread::scope(|scope| {
            for ranks in stream.chunks(READS.div_ceil(CLIENTS)) {
                let (pool, golden) = (&pool, &golden);
                let addr = cluster.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for &rank in ranks {
                        let want = (200, golden[rank].clone());
                        assert_eq!(client.ask(&pool[rank]), want, "{:?}", pool[rank]);
                    }
                });
            }
        });
        let (status, stats) = Client::connect(cluster.addr()).get("/stats");
        assert_eq!(status, 200, "{stats}");
        cluster.shutdown();
        let _ = std::fs::remove_file(dict);
        let tag = "\"hit_rate\":";
        let at = stats.find(tag).expect("hit_rate") + tag.len();
        stats[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect::<String>()
            .parse()
            .expect("hit rate")
    };
    let single = hit_rate(1);
    assert!(
        single <= 0.6,
        "single-worker hit rate {single:.2} above 0.6: the working set fits one \
         worker's cache, so the fleet comparison measures nothing"
    );
    let fleet = hit_rate(4);
    assert!(
        fleet >= 0.9,
        "4-worker hit rate {fleet:.2} below 0.9: hash partitioning no longer \
         aggregates the fleet's cache capacity"
    );
}
