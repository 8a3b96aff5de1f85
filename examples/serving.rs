//! The serving stack end to end: engine + result cache + live
//! dictionary deltas + an HTTP/1.1 round trip.
//!
//! Builds a fuzzy-enabled dictionary, puts it behind
//! `websyn_serve::Engine` (the sharded LRU result cache), replays a
//! small Zipf-ish stream of repeating queries to show the cache
//! absorbing the fuzzy path, applies a live dictionary delta, and
//! finally starts the real TCP server for pipelined keep-alive round
//! trips — queries, `/stats` and a delta over `POST /admin/dict/delta`
//! — against the same engine.
//!
//! Run: `cargo run --example serving --release`

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use websyn::common::EntityId;
use websyn::core::FuzzyConfig;
use websyn::prelude::*;
use websyn::serve::http::{percent_encode, read_response};

fn main() {
    // --- a fuzzy-enabled dictionary ---------------------------------
    let matcher = Arc::new(
        EntityMatcher::from_pairs(vec![
            (
                "Indiana Jones and the Kingdom of the Crystal Skull",
                EntityId::new(0),
            ),
            ("indy 4", EntityId::new(0)),
            ("madagascar 2", EntityId::new(1)),
            ("canon eos 350d", EntityId::new(2)),
            ("digital rebel xt", EntityId::new(2)),
        ])
        .with_fuzzy(FuzzyConfig::default()),
    );

    // --- the engine: matcher behind the sharded result cache --------
    let engine = Arc::new(
        Engine::builder(Arc::clone(&matcher))
            .cache_shards(4)
            .cache_capacity(256)
            .build(),
    );

    // A Zipf-flavoured micro-log: the head query dominates, misspelled.
    let stream = [
        "cheapest cannon eos 350d deals", // fuzzy: cannon → canon
        "cheapest cannon eos 350d deals",
        "indy 4 near san fran",
        "cheapest cannon eos 350d deals",
        "madagascar 2 showtimes",
        "cheapest cannon eos 350d deals",
        "indy 4 near san fran",
        "cheapest cannon eos 350d deals",
    ];
    println!("== resolving {} queries through the cache ==", stream.len());
    for query in stream {
        let spans = engine.resolve(query);
        let resolved: Vec<String> = spans
            .iter()
            .map(|s| format!("{}@d{}", s.surface(), s.distance))
            .collect();
        println!("  {query:<34} -> [{}]", resolved.join(", "));
    }
    let stats = engine.cache_stats();
    println!(
        "cache: {} hits / {} misses (hit rate {:.0}%) — the repeated fuzzy query verified once\n",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );

    // --- live dictionary delta ---------------------------------------
    // The compiled base stays immutable; small changes apply live as
    // delta segments through the engine's DictHandle — no recompile,
    // no restart, and the result cache invalidates only entries the
    // delta could have touched.
    println!("== live delta: 'indiana jones 4' joins the dictionary ==");
    let (applied, dict) = engine
        .apply_delta_tsv("indiana jones 4\t0\n")
        .expect("well-formed delta");
    let spans = engine.resolve("watch indiana jones 4 online");
    println!(
        "  after delta ({applied} op, {} live segment): 'watch indiana jones 4 online' -> {} span(s), cache entries {}\n",
        dict.segments,
        spans.len(),
        engine.cache_stats().entries,
    );

    // --- the TCP front end over HTTP/1.1 ----------------------------
    // The server answers result-cache hits on the connection thread
    // and resolves misses on its worker pool; every cache entry carries
    // its rendered response, so a repeated query is a pure
    // lookup-and-write.
    println!("== live HTTP/1.1 round trip (keep-alive, pipelined) ==");
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let conn = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut conn = conn;
    let queries = ["indy 4 tickets", "madagasacr 2"];
    for query in queries {
        write!(
            conn,
            "GET /match?q={} HTTP/1.1\r\n\r\n",
            percent_encode(query)
        )
        .expect("send");
    }
    write!(conn, "GET /stats HTTP/1.1\r\n\r\n").expect("send");
    for query in queries {
        let (status, body) = read_response(&mut reader).expect("recv");
        println!("  GET /match?q={query:<18} -> {status} {body}");
    }
    let (status, body) = read_response(&mut reader).expect("recv");
    println!("  GET /stats{:<21} -> {status} {body}", "");
    // A delta over the wire: live before the 200 is written.
    let delta = "madagascar escape 2 africa\t1\n";
    write!(
        conn,
        "POST /admin/dict/delta HTTP/1.1\r\nContent-Length: {}\r\n\r\n{delta}",
        delta.len()
    )
    .expect("send");
    let (status, body) = read_response(&mut reader).expect("recv");
    println!("  POST /admin/dict/delta{:<9} -> {status} {body}", "");
    drop(conn);
    drop(reader);
    server.shutdown();
    println!("server shut down cleanly.");
}
