//! Live-socket HTTP/1.1 conformance tests: keep-alive reuse, pipelined
//! re-sequencing, concurrent clients, error mapping
//! (400/404/405/431/503), percent-decoding of `q`, the stats and
//! observability endpoints, live dictionary replacement, the connection cap, graceful
//! shutdown (also under a client that never stops sending), and a
//! proptest that the pre-rendered JSON describes exactly the spans of
//! direct segmentation.

mod common;

use proptest::prelude::*;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use websyn_common::EntityId;
use websyn_core::{EntityMatcher, FuzzyConfig};
use websyn_serve::http::{percent_decode, percent_encode, read_response, spans_json};
use websyn_serve::{Engine, Server, ServerConfig, ServerHandle};

fn matcher() -> EntityMatcher {
    EntityMatcher::from_pairs(vec![
        ("indy 4", EntityId::new(0)),
        ("indiana jones 4", EntityId::new(0)),
        ("madagascar 2", EntityId::new(1)),
        ("canon eos 350d", EntityId::new(2)),
    ])
    .with_fuzzy(FuzzyConfig::default())
}

fn start(config: ServerConfig) -> (Arc<Engine>, ServerHandle) {
    let engine = Arc::new(
        Engine::builder(Arc::new(matcher()))
            .cache_shards(4)
            .cache_capacity(256)
            .build(),
    );
    let server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", config).expect("bind ephemeral port");
    (engine, server)
}

struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> Self {
        let conn = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(conn.try_clone().expect("clone"));
        Self { conn, reader }
    }

    fn send(&mut self, request_head: &str) {
        write!(self.conn, "{request_head}").expect("send");
    }

    fn recv(&mut self) -> (u16, String) {
        read_response(&mut self.reader).expect("response")
    }

    fn get(&mut self, target: &str) -> (u16, String) {
        self.send(&format!("GET {target} HTTP/1.1\r\n\r\n"));
        self.recv()
    }

    fn ask(&mut self, query: &str) -> (u16, String) {
        self.get(&format!("/match?q={}", percent_encode(query)))
    }

    /// Reads to EOF; returns how many bytes were left (0 = clean close
    /// with nothing after the last framed response).
    fn expect_eof(mut self) -> usize {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).expect("eof read");
        rest.len()
    }
}

#[test]
fn keep_alive_connection_answers_many_requests() {
    let (engine, server) = start(ServerConfig::default());
    let m = engine.matcher();
    let mut client = Client::connect(&server);
    for query in [
        "Indy 4 near san fran",
        "cheapest cannon eos 350d deals",
        "watch indiana jones 4 and madagascar 2",
        "no entities at all",
        "",
    ] {
        let expect = (200, spans_json(&m.segment(query)));
        // Twice on one connection: keep-alive reuse, and the second
        // answer comes from the result cache byte-identically.
        assert_eq!(client.ask(query), expect, "{query:?} uncached");
        assert_eq!(client.ask(query), expect, "{query:?} cached");
    }
    assert!(engine.cache_stats().hits >= 4);
    // The same socket still serves the stats and observability
    // endpoints afterwards.
    let (status, stats) = client.get("/stats");
    assert_eq!(status, 200);
    assert!(stats.starts_with("{\"hits\":"), "{stats:?}");
    assert!(stats.contains("\"swaps\":0"), "{stats}");
    let (status, metrics) = client.get("/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.starts_with("# TYPE websyn_uptime_seconds gauge\n"),
        "{metrics}"
    );
    assert!(metrics.contains("websyn_stage_duration_us"), "{metrics}");
    let (status, slow) = client.get("/debug/slow");
    assert_eq!(status, 200);
    assert!(slow.starts_with("{\"threshold_us\":"), "{slow}");
    assert!(slow.ends_with("]}"), "{slow}");
    server.shutdown();
}

#[test]
fn pipelined_gets_come_back_in_request_order() {
    let (engine, server) = start(ServerConfig::default());
    let m = engine.matcher();
    let queries: Vec<String> = (0..200)
        .map(|i| match i % 4 {
            0 => format!("indy 4 number {i}"),
            1 => format!("madagascar 2 viewing {i}"),
            2 => format!("canon eos 350d listing {i}"),
            _ => format!("nothing here {i}"),
        })
        .collect();
    let mut client = Client::connect(&server);
    for q in &queries {
        client.send(&format!(
            "GET /match?q={} HTTP/1.1\r\n\r\n",
            percent_encode(q)
        ));
    }
    for q in &queries {
        assert_eq!(client.recv(), (200, spans_json(&m.segment(q))), "{q:?}");
    }
    server.shutdown();
}

#[test]
fn percent_decoding_matches_direct_segmentation() {
    let (engine, server) = start(ServerConfig::default());
    let m = engine.matcher();
    let mut client = Client::connect(&server);
    // Hand-built encodings: `+`, `%20`, multi-byte UTF-8, and a
    // reserved character that must round-trip as query text.
    for (encoded, decoded) in [
        ("indy+4+near+sf", "indy 4 near sf"),
        ("indy%204", "indy 4"),
        ("caf%C3%A9%20madagascar%202", "café madagascar 2"),
        ("a%26b", "a&b"),
        ("%2Bindy+4", "+indy 4"),
    ] {
        assert_eq!(
            client.get(&format!("/match?q={encoded}")),
            (200, spans_json(&m.segment(decoded))),
            "{encoded}"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_400() {
    let (_engine, server) = start(ServerConfig::default());
    // Missing q and a broken escape: client errors, but framing is
    // intact, so the connection keeps serving.
    let mut client = Client::connect(&server);
    assert_eq!(
        client.get("/match"),
        (400, "{\"error\":\"malformed\"}".into())
    );
    assert_eq!(client.get("/match?q=bad%zz").0, 400);
    assert_eq!(client.ask("indy 4").0, 200, "connection survives a 400");

    // A garbage request line loses framing: one 400, then the server
    // closes the connection.
    let mut garbage = Client::connect(&server);
    garbage.send("this is not http\r\n\r\n");
    assert_eq!(garbage.recv().0, 400);
    assert_eq!(garbage.expect_eof(), 0, "connection closed after fatal 400");

    // An announced request body would desynchronize framing: 400+close.
    let mut body = Client::connect(&server);
    body.send("GET /match?q=a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
    assert_eq!(body.recv().0, 400);
    assert_eq!(body.expect_eof(), 0);
    server.shutdown();
}

#[test]
fn q_is_found_at_any_query_string_position() {
    let (engine, server) = start(ServerConfig::default());
    let m = engine.matcher();
    let mut client = Client::connect(&server);
    let golden = (200, spans_json(&m.segment("indy 4")));
    // `q` need not be the sole or first parameter; unknown parameters
    // are ignored wherever they sit.
    for target in [
        "/match?q=indy+4",
        "/match?verbose=1&q=indy+4",
        "/match?a=b&q=indy+4&c=d",
        "/match?q=indy+4&trace=",
    ] {
        assert_eq!(client.get(target), golden, "{target}");
    }
    server.shutdown();
}

#[test]
fn ambiguous_or_broken_q_is_400_not_a_guess() {
    let (_engine, server) = start(ServerConfig::default());
    let mut client = Client::connect(&server);
    for target in [
        "/match?q=a&q=b",          // duplicate q: ambiguous
        "/match?q",                // bare q, no value
        "/match?verbose=1",        // no q at all
        "/match?qq=indy",          // prefix is not a match
        "/match?verbose=1&q=a%2",  // truncated escape at end
        "/match?q=a%25zz&q=extra", // duplicate beats decodable value
        "/match?a=b&q=%",          // lone %
    ] {
        assert_eq!(
            client.get(target),
            (400, "{\"error\":\"malformed\"}".into()),
            "{target}"
        );
    }
    // None of those cost the connection.
    assert_eq!(client.ask("indy 4").0, 200);
    server.shutdown();
}

#[test]
fn unknown_endpoint_is_404_and_bad_method_405() {
    let (_engine, server) = start(ServerConfig::default());
    let mut client = Client::connect(&server);
    assert_eq!(
        client.get("/frobnicate"),
        (404, "{\"error\":\"not-found\"}".into())
    );
    client.send("DELETE /match?q=a HTTP/1.1\r\n\r\n");
    assert_eq!(
        client.recv(),
        (405, "{\"error\":\"method-not-allowed\"}".into())
    );
    // Neither error costs the connection.
    assert_eq!(client.ask("indy 4").0, 200);
    server.shutdown();
}

#[test]
fn connection_close_and_http10_close_the_socket() {
    let (engine, server) = start(ServerConfig::default());
    let m = engine.matcher();
    let mut client = Client::connect(&server);
    client.send("GET /match?q=indy+4 HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(client.recv(), (200, spans_json(&m.segment("indy 4"))));
    assert_eq!(
        client.expect_eof(),
        0,
        "socket closed after Connection: close"
    );

    let mut old = Client::connect(&server);
    old.send("GET /match?q=indy+4 HTTP/1.0\r\n\r\n");
    assert_eq!(old.recv().0, 200);
    assert_eq!(old.expect_eof(), 0, "HTTP/1.0 closes by default");
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_503_busy() {
    // One worker and a tiny queue: a pipeline of expensive misses keeps
    // the worker busy for at least half a second, so a flood right
    // behind them must overflow the queue and trip 503s.
    let (engine, server) = start(ServerConfig::builder().workers(1).queue_depth(2).build());
    let load = common::busy_queries(&engine.matcher(), Duration::from_millis(500));
    let mut client = Client::connect(&server);
    let n = 64;
    let mut burst: String = load
        .iter()
        .map(|q| format!("GET /match?q={} HTTP/1.1\r\n\r\n", percent_encode(q)))
        .collect();
    for i in 0..n {
        burst.push_str(&format!("GET /match?q=indy+4+burst+{i} HTTP/1.1\r\n\r\n"));
    }
    client.send(&burst);
    let mut ok = 0;
    let mut busy = 0;
    for _ in 0..load.len() + n {
        let (status, body) = client.recv();
        match status {
            200 => ok += 1,
            503 => {
                assert_eq!(body, "{\"error\":\"busy\"}");
                busy += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(ok + busy, load.len() + n);
    assert!(
        busy > 0,
        "a flood against depth 2 behind a busy worker must shed"
    );
    assert!(ok > 0, "accepted requests still complete");
    server.shutdown();
}

#[test]
fn oversized_request_lines_get_431_and_disconnect() {
    let (_engine, server) = start(ServerConfig::builder().max_line_bytes(128).build());
    let mut client = Client::connect(&server);
    client.send(&format!(
        "GET /match?q={} HTTP/1.1\r\n\r\n",
        "x".repeat(400)
    ));
    let (status, body) = client.recv();
    assert_eq!(status, 431);
    assert_eq!(body, "{\"error\":\"line-too-long\"}");
    assert_eq!(client.expect_eof(), 0, "connection dropped after 431");
    // A stream with no newline at all must not buffer unboundedly:
    // same reject, same disconnect.
    let mut flood = Client::connect(&server);
    flood.send(&"y".repeat(4096));
    assert_eq!(flood.recv(), (431, "{\"error\":\"line-too-long\"}".into()));
    assert_eq!(flood.expect_eof(), 0, "connection dropped after 431");
    // A fresh connection still works.
    let mut ok = Client::connect(&server);
    assert_eq!(ok.ask("indy 4").0, 200);
    server.shutdown();
}

#[test]
fn shutdown_is_clean_with_http_connections_open() {
    let (_engine, server) = start(ServerConfig::default());
    let mut client = Client::connect(&server);
    assert_eq!(client.ask("madagascar 2").0, 200);
    let addr = server.addr();
    // Shut down while the keep-alive connection is open; shutdown()
    // returning proves every thread was joined.
    server.shutdown();
    std::thread::sleep(Duration::from_millis(20));
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    assert!(refused.is_err(), "listener must be gone after shutdown");
}

#[test]
fn dictionary_replacement_on_a_live_server() {
    let (engine, server) = start(ServerConfig::default());
    let mut client = Client::connect(&server);
    let old = (200, spans_json(&engine.matcher().segment("indy 4")));
    assert_eq!(client.ask("indy 4"), old);
    // Rebuild-and-swap while the connection stays open: same surface,
    // different entity — a stale cache entry would be visible.
    let new = EntityMatcher::from_pairs(vec![("indy 4", EntityId::new(9))])
        .with_fuzzy(FuzzyConfig::default());
    engine.dict().replace_base(new.clone());
    let fresh = client.ask("indy 4");
    assert_eq!(fresh, (200, spans_json(&new.segment("indy 4"))));
    assert_ne!(fresh, old);
    let (_, stats) = client.get("/stats");
    assert!(stats.contains("\"swaps\":1"), "{stats}");
    server.shutdown();
}

#[test]
fn connections_beyond_the_cap_are_shed() {
    let (engine, server) = start(ServerConfig::builder().max_connections(2).build());
    let golden = (200, spans_json(&engine.matcher().segment("indy 4")));
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);
    assert_eq!(a.ask("indy 4"), golden);
    assert_eq!(b.ask("indy 4"), golden);
    // Third connection: accepted by the OS, immediately dropped by the
    // accept loop — the client sees EOF, never a hung socket.
    let shed = Client::connect(&server);
    shed.conn
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    assert_eq!(shed.expect_eof(), 0, "capped connection must be closed");
    // Existing connections keep working.
    assert_eq!(a.ask("madagascar 2").0, 200);
    server.shutdown();
}

#[test]
fn shutdown_completes_while_a_client_streams_continuously() {
    // Short write timeout: the flooder never reads its responses, so
    // the final flush may have to time out against full kernel buffers
    // before the connection is torn down.
    let (_engine, server) = start(
        ServerConfig::builder()
            .write_timeout(Duration::from_millis(300))
            .build(),
    );
    let addr = server.addr();
    // A client that never pauses between requests: without the
    // shutdown check on the busy-reader path this would pin the
    // connection thread and block shutdown() forever.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect");
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if conn
                    .write_all(b"GET /match?q=indy+4+flood HTTP/1.1\r\n\r\n")
                    .is_err()
                {
                    break; // server went away — expected
                }
            }
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let shut = std::thread::spawn(move || server.shutdown());
    let started = std::time::Instant::now();
    while !shut.is_finished() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must not hang on a busy connection"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    shut.join().expect("shutdown thread");
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    flooder.join().expect("flooder thread");
}

#[test]
fn concurrent_clients_each_get_their_own_answers() {
    let (engine, server) = start(ServerConfig::default());
    let m = engine.matcher();
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let m = m.clone();
            let mut client = Client::connect(&server);
            std::thread::spawn(move || {
                for i in 0..50 {
                    let q = format!("client {t} asks indy 4 round {i}");
                    assert_eq!(client.ask(&q), (200, spans_json(&m.segment(&q))), "{q:?}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    server.shutdown();
}

/// Parses the JSON rendering into `(start, end, entity, distance,
/// surface)` tuples. The serializer's output grammar is fixed (no
/// whitespace, fixed key order), so a split-based parse is exact — and
/// independent of the serializer.
fn json_fields(body: &str) -> Vec<(usize, usize, u64, usize, String)> {
    let inner = body
        .strip_prefix("{\"spans\":[")
        .and_then(|b| b.strip_suffix("]}"))
        .expect("spans body");
    if inner.is_empty() {
        return Vec::new();
    }
    inner
        .split("},{")
        .map(|obj| {
            let obj = obj.trim_start_matches('{').trim_end_matches('}');
            let field = |key: &str| -> String {
                let at = obj.find(key).expect(key) + key.len();
                obj[at..]
                    .chars()
                    .take_while(|&c| c != ',' && c != '"')
                    .collect()
            };
            let surface = {
                let key = "\"surface\":\"";
                let at = obj.find(key).expect("surface") + key.len();
                obj[at..].trim_end_matches('"').to_string()
            };
            (
                field("\"start\":").parse().unwrap(),
                field("\"end\":").parse().unwrap(),
                field("\"entity\":").parse().unwrap(),
                field("\"distance\":").parse().unwrap(),
                surface,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pre-rendered response of one cache entry must describe
    /// exactly the spans of direct segmentation — field for field,
    /// read back through an independent parser — for exact hits, fuzzy
    /// hits and misses alike, cold and warm. (The server writes these
    /// entries verbatim — the socket tests above pin that — so
    /// entry-level equivalence is response-level equivalence.)
    #[test]
    fn rendered_json_describes_the_spans_of_direct_segmentation(
        mention in 0usize..6,
        noise in "[a-z0-9 ]{0,20}",
    ) {
        // Mix dictionary mentions (including typos the fuzzy path
        // resolves) with arbitrary noise text.
        const MENTIONS: [&str; 6] = [
            "indy 4",
            "indiana jones 4",
            "cannon eos 350d", // fuzzy: distance 1
            "madagasacr 2",    // fuzzy: transposition
            "350d",            // no entity: too short for a surface
            "",
        ];
        let query = format!("{} {}", MENTIONS[mention], noise);
        let engine = Engine::builder(Arc::new(matcher())).build();
        let golden = engine.matcher().segment(&query);
        let fields: Vec<_> = golden
            .iter()
            .map(|s| (s.start, s.end, u64::from(s.entity.raw()), s.distance, s.surface().to_string()))
            .collect();
        for pass in ["cold", "warm"] {
            let rendered = engine.resolve_rendered_batch(&[query.as_str()]).remove(0);
            let body = rendered.http.split("\r\n\r\n").nth(1).expect("http body");
            prop_assert_eq!(json_fields(body), fields.clone(), "{} {:?}", pass, query);
            prop_assert_eq!(body, spans_json(&golden).as_str());
            prop_assert_eq!(&*rendered.spans, &golden);
        }
    }

    /// `percent_decode` must never panic, and everything
    /// `percent_encode` emits must decode back to the original —
    /// including multi-byte UTF-8, `%`, `+`, and `&`.
    #[test]
    fn percent_decode_round_trips_and_never_panics(s in "\\PC{0,40}") {
        let encoded = percent_encode(&s);
        prop_assert_eq!(percent_decode(&encoded), Some(s.clone()), "{:?}", encoded);
        // Feeding the *raw* string in must not panic either; it either
        // decodes (possibly lossily through stray `+`) or returns None
        // on a broken escape — both map to a well-formed response.
        let _ = percent_decode(&s);
    }

    /// Chopping an encoded string at an arbitrary byte boundary — the
    /// truncated-escape case (`a%2`, `a%`) — must yield `Some` or
    /// `None`, never a panic or an out-of-bounds slice.
    #[test]
    fn truncated_escapes_fail_closed(s in "[a-z%+ ]{0,12}", cut in 0usize..16) {
        let encoded = percent_encode(&s);
        let cut = cut.min(encoded.len());
        let _ = percent_decode(&encoded[..cut]);
    }
}
